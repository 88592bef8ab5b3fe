// Deep hierarchy: the paper's Algorithm 1 supports "an arbitrary number
// of tiling levels"; this example exercises that generality on a
// four-level memory (DRAM → shared SRAM → per-PE scratchpad →
// registers) that the paper's three-level evaluation never touches. The
// optimizer solves one geometric program per combination of permutation
// classes across all three copy levels and prints the winning tiling.
//
// Run with:
//
//	go run ./examples/deephierarchy
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/arch"
	"repro/internal/hierarchy"
	"repro/internal/loopnest"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run optimizes the example stage and prints the design to w.
func run(w io.Writer) error {
	// A mid-size ResNet-like stage.
	prob, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "stage", N: 1, K: 64, C: 64, H: 28, W: 28, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "problem: %s (%d MACs)\n\n", prob.String(), prob.Ops())

	// Four-level memory: small register files, a 2K-word per-PE
	// scratchpad (absorbing reuse the registers cannot), and the shared
	// SRAM. Energy constants follow the paper's Eq. 4 shapes.
	e := arch.Eyeriss()
	cfg := &hierarchy.Config{
		Buffers: []hierarchy.BufferSpec{
			{Name: "registers", Words: 48, Energy: e.Tech.SigmaR * 48, BW: 4},
			{Name: "spad", Words: 2048, Energy: e.Tech.SigmaS * 45, BW: 8}, // σ_S·√2048
			{Name: "sram", Words: 65536, Energy: e.SRAMEnergy(), BW: 80},
		},
		SpatialAfter: 1, // registers + spad are per-PE
		PEs:          256,
		DRAMEnergy:   e.Tech.EnergyDRAM,
		DRAMBW:       e.Tech.BWDRAM,
		MACEnergy:    e.Tech.EnergyMAC,
	}
	for _, b := range cfg.Buffers {
		fmt.Fprintf(w, "buffer %-10s %6d words, %.3f pJ/word\n", b.Name, b.Words, b.Energy)
	}
	fmt.Fprintln(w)

	design, err := hierarchy.OptimizeEnergy(prob, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "optimized energy: %.3f pJ/MAC (GP bound %.3f) across %d permutation-class combos\n",
		design.Report.EnergyPerMAC, design.GPObjective/float64(prob.Ops()), design.Combos)
	fmt.Fprintf(w, "delay: %.4g cycles (IPC %.1f with %d PEs)\n\n",
		design.Report.Cycles, design.Report.IPC, design.Report.PEsUsed)

	names := []string{"register tile", "reg-tile loops", "spad-tile loops", "PE grid", "SRAM-tile loops"}
	for li, name := range names {
		fmt.Fprintf(w, "%-18s", name)
		for it, iter := range prob.Iters {
			trip := int64(1)
			if li < len(design.Trips) && it < len(design.Trips[li]) && design.Trips[li][it] > 0 {
				trip = design.Trips[li][it]
			}
			if trip > 1 {
				fmt.Fprintf(w, "  %s=%d", iter.Name, trip)
			}
		}
		fmt.Fprintln(w)
	}
	_, err = fmt.Fprintf(w, "\nboundary traffic (words): registers %.3g, spad %.3g, sram %.3g\n",
		design.Report.Traffic[0], design.Report.Traffic[1], design.Report.Traffic[2])
	return err
}

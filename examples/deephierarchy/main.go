// Deep hierarchy: the paper's Algorithm 1 supports "an arbitrary number
// of tiling levels"; this example exercises that generality on a
// four-level memory (DRAM → shared SRAM → per-PE scratchpad →
// registers) that the paper's three-level evaluation never touches. The
// scratchpad is an intermediate buffer of the architecture
// (arch.Arch.Mid), and core.Optimize runs the same flow as at depth 2:
// one geometric program per combination of permutation classes across
// all three copy levels, for each placement of the kernel loops, then
// the integer search. It prints the winning tiling.
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
	"repro/internal/core"
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
	a := arch.Eyeriss()
	a.Name = "deep"
	a.Regs = 48
	a.PEs = 256
	a.Mid = []arch.Buffer{
		{Name: "spad", Words: 2048, Energy: a.Tech.SigmaS * 45, BW: 8, PerPE: true}, // σ_S·√2048
	}
	fmt.Fprintf(w, "buffer %-10s %6d words, %.3f pJ/word\n", "registers", a.Regs, a.RegEnergy())
	for _, b := range a.Mid {
		fmt.Fprintf(w, "buffer %-10s %6d words, %.3f pJ/word\n", b.Name, b.Words, b.Energy)
	}
	fmt.Fprintf(w, "buffer %-10s %6d words, %.3f pJ/word\n\n", "sram", a.SRAM, a.SRAMEnergy())

	res, err := core.Optimize(prob, core.Options{Arch: &a})
	if err != nil {
		return err
	}
	design, st := res.Best, res.Stats
	fmt.Fprintf(w, "optimized energy: %.3f pJ/MAC (GP bound %.3f) across %d permutation-class combos\n",
		design.Report.EnergyPerMAC, design.GPObjective/float64(prob.Ops()), st.PairsSolved+st.Pruned)
	fmt.Fprintf(w, "kernel loops: %v\n", design.NestOptions.RS)
	fmt.Fprintf(w, "delay: %.4g cycles (IPC %.1f with %d PEs)\n\n",
		design.Report.Cycles, design.Report.IPC, design.Report.PEsUsed)

	trips := design.Mapping.Trips
	names := []string{"register tile", "reg-tile loops", "spad-tile loops", "PE grid", "SRAM-tile loops"}
	for li, name := range names {
		fmt.Fprintf(w, "%-18s", name)
		for it, iter := range prob.Iters {
			if trips[li][it] > 1 {
				fmt.Fprintf(w, "  %s=%d", iter.Name, trips[li][it])
			}
		}
		fmt.Fprintln(w)
	}
	_, err = fmt.Fprintf(w, "\nboundary traffic (words): registers %.3g, spad %.3g, sram %.3g\n",
		design.Report.TrafficSR, design.Report.Mid[0].Traffic, design.Report.TrafficDS)
	return err
}

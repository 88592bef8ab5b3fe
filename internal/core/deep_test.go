package core

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/loopnest"
	"repro/internal/model"
)

// deep3 is a four-level memory: registers, a per-PE scratchpad, the
// shared SRAM, DRAM.
func deep3() arch.Arch {
	a := arch.Eyeriss()
	a.Name = "deep3"
	a.Regs = 32
	a.PEs = 256
	a.Mid = []arch.Buffer{{Name: "spad", Words: 2048, Energy: 0.8, BW: 8, PerPE: true}}
	return a
}

// deepConv is a 7-loop convolution whose 3×3 kernel loops are pinned.
func deepConv(t *testing.T) *loopnest.Problem {
	t.Helper()
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "deepconv", N: 1, K: 32, C: 16, H: 14, W: 14, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkDeepDesign checks a depth-3 design end to end: every capacity
// holds, the kept report is the one a fresh evaluation gives, and the
// design beats the all-sequential model.UniformMapping.
func checkDeepDesign(t *testing.T, p *loopnest.Problem, a *arch.Arch, res *Result) {
	t.Helper()
	d := res.Best
	rep := d.Report
	if !rep.Valid() {
		t.Fatalf("%s: violations %v", p.Name, rep.Violations)
	}
	if len(rep.Mid) != 1 || rep.Mid[0].Footprint > float64(a.Mid[0].Words) ||
		rep.RegFootprint > float64(a.Regs) || rep.SRAMFootprint > float64(a.SRAM) || rep.PEsUsed > a.PEs {
		t.Fatalf("%s: report %+v exceeds a capacity of %v", p.Name, rep, a)
	}
	fresh, err := EvaluateOn(p, a, d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, rep) {
		t.Fatalf("%s: kept report %+v, fresh evaluation %+v", p.Name, rep, fresh)
	}
	nest, err := NestFor(p, d)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := model.NewEvaluator(nest).Evaluate(a, model.UniformMapping(nest))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Energy >= naive.Energy {
		t.Fatalf("%s: optimized %.4g pJ not below the uniform mapping's %.4g", p.Name, rep.Energy, naive.Energy)
	}
	t.Logf("%s: %.3f pJ/MAC (GP bound %.3f, uniform mapping %.3f), %v",
		p.Name, rep.EnergyPerMAC, d.GPObjective/float64(rep.Ops), naive.EnergyPerMAC, d.NestOptions.RS)
}

// TestOptimizeDeep: core.Optimize on a four-level memory, for a matmul
// and for a convolution with pinned kernel loops.
func TestOptimizeDeep(t *testing.T) {
	conv := deepConv(t)
	for _, p := range []*loopnest.Problem{loopnest.MatMul(128, 128, 128), conv} {
		t.Run(p.Name, func(t *testing.T) {
			a := deep3()
			if p == conv {
				a.Regs = 64 // room for the 3×3 window
			}
			res, err := Optimize(p, Options{Arch: &a})
			if err != nil {
				t.Fatal(err)
			}
			checkDeepDesign(t, p, &a, res)
		})
	}
}

// TestOptimizeDeepParallel: a depth-3 search returns byte-identical
// results at scheduler widths 1 and 4.
func TestOptimizeDeepParallel(t *testing.T) {
	p := loopnest.MatMul(128, 128, 128)
	var out [][]byte
	for _, width := range []int{1, 4} {
		a := deep3()
		res, err := Optimize(p, Options{Arch: &a, Parallel: width})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	if string(out[0]) != string(out[1]) {
		t.Fatalf("width 1 result %s\nwidth 4 result %s", out[0], out[1])
	}
}

// TestOptimizeDeepCoDesign: co-design has no model of an intermediate
// buffer's area, so it refuses an architecture with one.
func TestOptimizeDeepCoDesign(t *testing.T) {
	a := deep3()
	_, err := Optimize(loopnest.MatMul(16, 16, 16), Options{Mode: CoDesign, Arch: &a})
	if !errors.Is(err, ErrDeepCoDesign) {
		t.Fatalf("co-design with an intermediate buffer: err = %v, want ErrDeepCoDesign", err)
	}
}

package hierarchy

import (
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// eyerissAsHierarchy expresses the paper's three-level memory in the
// generic form: registers (per-PE) + shared SRAM.
func eyerissAsHierarchy() *Config {
	e := arch.Eyeriss()
	return &Config{
		Buffers: []BufferSpec{
			{Name: "registers", Words: e.Regs, Energy: e.RegEnergy(), BW: e.Tech.BWReg},
			{Name: "sram", Words: e.SRAM, Energy: e.SRAMEnergy(), BW: e.Tech.BWSRAM},
		},
		SpatialAfter: 0,
		PEs:          e.PEs,
		DRAMEnergy:   e.Tech.EnergyDRAM,
		DRAMBW:       e.Tech.BWDRAM,
		MACEnergy:    e.Tech.EnergyMAC,
	}
}

// deep3 is a four-level memory: registers, per-PE scratchpad, shared
// SRAM, DRAM.
func deep3() *Config {
	e := arch.Eyeriss()
	return &Config{
		Buffers: []BufferSpec{
			{Name: "registers", Words: 32, Energy: 0.29, BW: 4},
			{Name: "spad", Words: 2048, Energy: 0.8, BW: 8},
			{Name: "sram", Words: 65536, Energy: e.SRAMEnergy(), BW: 80},
		},
		SpatialAfter: 1, // registers and spad are per-PE
		PEs:          256,
		DRAMEnergy:   e.Tech.EnergyDRAM,
		DRAMBW:       e.Tech.BWDRAM,
		MACEnergy:    e.Tech.EnergyMAC,
	}
}

// nestFor builds the hierarchy's nest, as OptimizeEnergy does.
func nestFor(t *testing.T, p *loopnest.Problem, c *Config) *dataflow.Nest {
	t.Helper()
	nest, err := dataflow.BuildNest(p, len(c.Buffers), c.SpatialAfter, dataflow.RSAtRegister)
	if err != nil {
		t.Fatal(err)
	}
	return nest
}

// sameStructure reports how two nests differ in levels (names, kinds,
// active sets, pins and trip variables), pins or variable count, or "".
func sameStructure(a, b *dataflow.Nest) string {
	if len(a.Levels) != len(b.Levels) {
		return fmt.Sprintf("%d levels vs %d", len(a.Levels), len(b.Levels))
	}
	for li := range a.Levels {
		la, lb := &a.Levels[li], &b.Levels[li]
		if la.Name != lb.Name || la.Kind != lb.Kind || la.Copy != lb.Copy ||
			!slices.Equal(la.Active, lb.Active) || !maps.Equal(la.Fixed, lb.Fixed) || !slices.Equal(la.Trips, lb.Trips) {
			return fmt.Sprintf("level %d: %+v vs %+v", li, *la, *lb)
		}
	}
	if !slices.Equal(a.Pins, b.Pins) {
		return fmt.Sprintf("pins %v vs %v", a.Pins, b.Pins)
	}
	if a.Vars.Len() != b.Vars.Len() {
		return fmt.Sprintf("%d variables vs %d", a.Vars.Len(), b.Vars.Len())
	}
	return ""
}

// TestTwoLevelMatchesStandardModel: a 2-buffer hierarchy's nest is the
// standard nest — the same levels, active sets, pins and variables as
// the paper's Fig. 1 nest written out level by level, for both kernel
// placements — and the generic evaluator agrees exactly with the
// paper-specific model package on it.
func TestTwoLevelMatchesStandardModel(t *testing.T) {
	conv, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "conv", N: 1, K: 8, C: 4, H: 6, W: 6, R: 3, S: 3, StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := eyerissAsHierarchy()
	for _, p := range []*loopnest.Problem{loopnest.MatMul(64, 64, 64), conv} {
		for _, rs := range []dataflow.RSPlacement{dataflow.RSAtRegister, dataflow.RSAtLevel1} {
			// Fig. 1: register tile, SRAM→register copies, PE grid,
			// DRAM→SRAM copies; r/s pinned at their placement.
			var tiled, kernel []int
			pinned := map[int]int64{}
			for it, iter := range p.Iters {
				switch {
				case iter.Extent == 1:
				case iter.Name == "r" || iter.Name == "s":
					kernel = append(kernel, it)
					pinned[it] = iter.Extent
				default:
					tiled = append(tiled, it)
				}
			}
			ref := []dataflow.LevelConfig{
				{Name: "reg", Kind: dataflow.Temporal, Active: tiled},
				{Name: "q", Kind: dataflow.Temporal, Copy: true, Active: tiled},
				{Name: "p", Kind: dataflow.Spatial, Active: tiled},
				{Name: "t", Kind: dataflow.Temporal, Copy: true, Active: tiled},
			}
			place := dataflow.StandardLevelReg
			if rs == dataflow.RSAtLevel1 {
				place = dataflow.StandardLevelL1
			}
			ref[place].Active = append(slices.Clone(tiled), kernel...)
			ref[place].Fixed = pinned
			want, err := dataflow.NewNest(p, ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := dataflow.BuildNest(p, len(cfg.Buffers), cfg.SpatialAfter, rs)
			if err != nil {
				t.Fatal(err)
			}
			std, err := dataflow.StandardNest(p, dataflow.StandardOptions{RS: rs})
			if err != nil {
				t.Fatal(err)
			}
			for name, n := range map[string]*dataflow.Nest{"depth-2 nest": got, "standard nest": std} {
				if diff := sameStructure(n, want); diff != "" {
					t.Fatalf("%s %v: %s differs from Fig. 1: %s", p.Name, rs, name, diff)
				}
			}
		}
	}

	p := loopnest.MatMul(64, 64, 64)
	nest := nestFor(t, p, cfg)
	trips := [][]int64{
		{4, 4, 4},
		{2, 2, 4},
		{2, 2, 1},
		{4, 4, 4},
	}
	perms := dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1})
	rep, err := Evaluate(cfg, nest, trips, perms)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the standard model on the same mapping.
	ev := model.NewEvaluator(nest)
	a := arch.Eyeriss()
	ref, err := ev.Evaluate(&a, &model.Mapping{Perms: perms, Trips: trips})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Energy-ref.Energy) > 1e-6*ref.Energy {
		t.Fatalf("energy %.6g != standard model %.6g", rep.Energy, ref.Energy)
	}
	if math.Abs(rep.Cycles-ref.Cycles) > 1e-9*ref.Cycles {
		t.Fatalf("cycles %.6g != standard model %.6g", rep.Cycles, ref.Cycles)
	}
	if rep.Traffic[0] != ref.TrafficSR || rep.Traffic[1] != ref.TrafficDS {
		t.Fatalf("traffic mismatch: %v vs %v/%v", rep.Traffic, ref.TrafficSR, ref.TrafficDS)
	}
	if rep.PEsUsed != ref.PEsUsed {
		t.Fatalf("PEs %d != %d", rep.PEsUsed, ref.PEsUsed)
	}
}

// TestDeepEvaluateConservation: traffic through an intermediate buffer
// can never be less than the traffic of the boundary above it divided by
// reuse — but at minimum, inner boundaries carry at least the compulsory
// words that ultimately reach the MACs. Check basic sanity: all traffics
// positive, footprints within capacities for a small valid mapping, and
// the energy exceeds the compute floor.
func TestDeepEvaluateConservation(t *testing.T) {
	p := loopnest.MatMul(32, 32, 32)
	cfg := deep3()
	nest := nestFor(t, p, cfg)
	cl := nest.CopyLevels()
	// trips: t0=2, c0=2, c1=2, pe=2, c2=2 → product 32 per dim.
	trips := make([][]int64, len(nest.Levels))
	for li := range trips {
		trips[li] = []int64{2, 2, 2}
	}
	perms := make([][]int, len(nest.Levels))
	for _, li := range cl {
		perms[li] = []int{0, 1, 2}
	}
	rep, err := Evaluate(cfg, nest, trips, perms)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	floor := (4*cfg.Buffers[0].Energy + cfg.MACEnergy) * float64(rep.Ops)
	if rep.Energy <= floor {
		t.Fatalf("energy %v below compute floor %v", rep.Energy, floor)
	}
	for b, tr := range rep.Traffic {
		if tr <= 0 {
			t.Fatalf("boundary %d traffic %v", b, tr)
		}
	}
	if rep.PEsUsed != 8 {
		t.Fatalf("PEsUsed = %d, want 8", rep.PEsUsed)
	}
}

// TestOptimizeEnergyDeep: end-to-end GP optimization on the 4-level
// memory. The optimized design must beat a naive all-at-top mapping and
// respect every capacity.
func TestOptimizeEnergyDeep(t *testing.T) {
	p := loopnest.MatMul(128, 128, 128)
	cfg := deep3()
	d, err := OptimizeEnergy(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Report.Valid() {
		t.Fatalf("violations: %v", d.Report.Violations)
	}
	t.Logf("deep design: %.3f pJ/MAC over %d class combos (GP bound %.3f)",
		d.Report.EnergyPerMAC, d.Combos, d.GPObjective/float64(p.Ops()))

	// The kept report is the one a fresh evaluation of the design gives:
	// the search's reused report does not leak into it.
	nest := nestFor(t, p, cfg)
	fresh, err := Evaluate(cfg, nest, d.Trips, d.Perms)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, d.Report) {
		t.Fatalf("kept report %+v, fresh evaluation %+v", d.Report, fresh)
	}

	// Naive reference: everything sequential at the outermost level.
	cl := nest.CopyLevels()
	naive := make([][]int64, len(nest.Levels))
	for li := range naive {
		naive[li] = []int64{1, 1, 1}
	}
	naive[cl[len(cl)-1]] = []int64{128, 128, 128}
	perms := make([][]int, len(nest.Levels))
	for _, li := range cl {
		perms[li] = []int{0, 1, 2}
	}
	ref, err := Evaluate(cfg, nest, naive, perms)
	if err != nil {
		t.Fatal(err)
	}
	if d.Report.Energy >= ref.Energy {
		t.Fatalf("optimized %.4g not below naive %.4g", d.Report.Energy, ref.Energy)
	}
	// The GP bound should not exceed the achieved energy by much (it is a
	// relaxation of a superset of integer points).
	if d.Report.Energy < d.GPObjective*0.97 {
		t.Fatalf("integer energy %.4g below GP bound %.4g", d.Report.Energy, d.GPObjective)
	}
}

// TestOptimizeEnergyDeepConv: the deep optimizer also handles the
// 7-loop convolution with pinned kernel loops.
func TestOptimizeEnergyDeepConv(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "deepconv", N: 1, K: 32, C: 16, H: 14, W: 14, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := deep3()
	cfg.Buffers[0].Words = 64 // room for the 3×3 window
	d, err := OptimizeEnergy(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Report.Valid() {
		t.Fatalf("violations: %v", d.Report.Violations)
	}
	t.Logf("deep conv design: %.3f pJ/MAC", d.Report.EnergyPerMAC)
}

// TestOptimizeEnergyDeepWidths: the deep search returns the same design
// at scheduler widths 1 and 4.
func TestOptimizeEnergyDeepWidths(t *testing.T) {
	p := loopnest.MatMul(128, 128, 128)
	var designs []*Design
	for _, width := range []int{1, 4} {
		ctx := pipeline.ContextWithScheduler(context.Background(), pipeline.NewScheduler(width))
		d, err := optimizeEnergy(ctx, p, deep3())
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d)
	}
	if !reflect.DeepEqual(designs[0], designs[1]) {
		t.Fatalf("width 1 design %+v, width 4 design %+v", designs[0], designs[1])
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []*Config{
		{},
		{Buffers: []BufferSpec{{Name: "r", Words: 1, BW: 1}}, SpatialAfter: 5, PEs: 1, DRAMBW: 1},
		{Buffers: []BufferSpec{{Name: "r", Words: 0, BW: 1}}, PEs: 1, DRAMBW: 1},
		{Buffers: []BufferSpec{{Name: "r", Words: 1, BW: 1}}, PEs: 0, DRAMBW: 1},
		{Buffers: []BufferSpec{{Name: "r", Words: 1, BW: 1}}, PEs: 1, DRAMBW: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d should fail", i)
		}
	}
	if err := eyerissAsHierarchy().Validate(); err != nil {
		t.Fatal(err)
	}
}

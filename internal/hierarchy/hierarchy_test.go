package hierarchy

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
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

// TestTwoLevelMatchesStandardModel: the generic evaluator on a 2-buffer
// hierarchy must agree exactly with the paper-specific model package.
func TestTwoLevelMatchesStandardModel(t *testing.T) {
	p := loopnest.MatMul(64, 64, 64)
	cfg := eyerissAsHierarchy()
	nest, err := BuildNest(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	copyLevels := CopyLevels(nest)
	if len(copyLevels) != 2 {
		t.Fatalf("copy levels = %v, want 2", copyLevels)
	}
	trips := [][]int64{
		{4, 4, 4},
		{2, 2, 4},
		{2, 2, 1},
		{4, 4, 4},
	}
	perms := make([][]int, len(nest.Levels))
	perms[copyLevels[0]] = []int{0, 1, 2}
	perms[copyLevels[1]] = []int{0, 2, 1}
	rep, err := Evaluate(cfg, nest, trips, perms)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the standard model on the same mapping.
	stdNest, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev := model.NewEvaluator(stdNest)
	a := arch.Eyeriss()
	ref, err := ev.Evaluate(&a, &model.Mapping{
		Perms: dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1}),
		Trips: trips,
	})
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

// TestThreeLevelNestStructure: a 3-buffer hierarchy builds a 5-level nest
// with 3 boundaries, and the spatial level sits above the per-PE spad.
func TestThreeLevelNestStructure(t *testing.T) {
	p := loopnest.MatMul(64, 64, 64)
	cfg := deep3()
	nest, err := BuildNest(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(nest.Levels) != 6 { // t0, c0, c1, pe, c2 → 5? plus spatial = 6 with 3 copies
		// levels: t0, c0, c1, pe, c2 — that's 5.
		if len(nest.Levels) != 5 {
			t.Fatalf("levels = %d", len(nest.Levels))
		}
	}
	cl := CopyLevels(nest)
	if len(cl) != 3 {
		t.Fatalf("copy levels = %v, want 3", cl)
	}
	spatial := -1
	for li := range nest.Levels {
		if nest.Levels[li].Kind == dataflow.Spatial {
			spatial = li
		}
	}
	if spatial < cl[1] || spatial > cl[2] {
		t.Fatalf("spatial level %d not between copy levels %v", spatial, cl)
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
	nest, err := BuildNest(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := CopyLevels(nest)
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

	// Naive reference: everything sequential at the outermost level.
	nest, err := BuildNest(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := CopyLevels(nest)
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

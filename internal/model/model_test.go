package model

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
)

func matmulSetup(t *testing.T) (*Evaluator, *Mapping) {
	t.Helper()
	p := loopnest.MatMul(64, 64, 64)
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := &Mapping{
		Perms: dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1}),
		Trips: [][]int64{
			{4, 4, 4},
			{2, 2, 4},
			{2, 2, 1},
			{4, 4, 4},
		},
	}
	return NewEvaluator(n), m
}

func TestEvaluateMatmulEnergy(t *testing.T) {
	ev, m := matmulSetup(t)
	a := arch.Eyeriss()
	r, err := ev.Evaluate(&a, m)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Valid() {
		t.Fatalf("violations: %v", r.Violations)
	}
	if r.Ops != 64*64*64 {
		t.Fatalf("Ops = %d", r.Ops)
	}
	// Exact traffic values from the dataflow tests.
	N := 64.0 * 64 * 64
	wantSR := N/(4*2) + N/(4*2) + 2*N/16
	wantDS := 64.0*64 + N/16 + 2*N/16
	if r.TrafficSR != wantSR || r.TrafficDS != wantDS {
		t.Fatalf("traffic = %v/%v, want %v/%v", r.TrafficSR, r.TrafficDS, wantSR, wantDS)
	}
	epsR, epsS, epsD := a.RegEnergy(), a.SRAMEnergy(), a.Tech.EnergyDRAM
	wantEnergy := (4*epsR+2.2)*N + epsR*wantSR + epsS*(wantSR+wantDS) + epsD*wantDS
	if math.Abs(r.Energy-wantEnergy) > 1e-6*wantEnergy {
		t.Fatalf("energy = %v, want %v", r.Energy, wantEnergy)
	}
	if math.Abs(r.EnergyPerMAC-wantEnergy/N) > 1e-9 {
		t.Fatalf("pJ/MAC = %v", r.EnergyPerMAC)
	}
	if math.Abs(r.Breakdown.Total()-r.Energy) > 1e-9 {
		t.Fatal("breakdown doesn't sum")
	}
}

func TestEvaluateMatmulDelay(t *testing.T) {
	ev, m := matmulSetup(t)
	a := arch.Eyeriss()
	r, err := ev.Evaluate(&a, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.PEsUsed != 4 {
		t.Fatalf("PEsUsed = %d, want 4 (2·2·1)", r.PEsUsed)
	}
	ops := float64(r.Ops)
	compute := ops / 4
	regPort := 4 * ops / (4 * a.Tech.BWReg)
	sram := (r.TrafficSR + r.TrafficDS) / a.Tech.BWSRAM
	dram := r.TrafficDS / a.Tech.BWDRAM
	want := math.Max(math.Max(compute, regPort), math.Max(sram, dram))
	if r.Cycles != want {
		t.Fatalf("cycles = %v, want %v", r.Cycles, want)
	}
	if math.Abs(r.IPC-ops/want) > 1e-9 {
		t.Fatalf("IPC = %v", r.IPC)
	}
	if math.Abs(r.Utilization-4.0/168) > 1e-12 {
		t.Fatalf("utilization = %v", r.Utilization)
	}
}

func TestEvaluateDetectsViolations(t *testing.T) {
	p := loopnest.MatMul(64, 64, 64)
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(n)
	// Tiny architecture that cannot hold the tiles.
	a := arch.Arch{Name: "tiny", PEs: 2, Regs: 8, SRAM: 64, Tech: arch.Tech45nm()}
	m := &Mapping{
		Perms: dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1}),
		Trips: [][]int64{
			{4, 4, 4},
			{2, 2, 4},
			{2, 2, 1},
			{4, 4, 4},
		},
	}
	r, err := ev.Evaluate(&a, m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Valid() || len(r.Violations) != 3 {
		t.Fatalf("violations = %v, want 3 (regs, sram, PEs)", r.Violations)
	}
}

func TestEvaluateRejectsBadTrips(t *testing.T) {
	ev, m := matmulSetup(t)
	a := arch.Eyeriss()
	bad := m.Clone()
	bad.Trips[3][0] = 2 // i product now 32
	if _, err := ev.Evaluate(&a, bad); err == nil {
		t.Fatal("expected trip validation error")
	}
	badArch := arch.Arch{}
	if _, err := ev.Evaluate(&badArch, m); err == nil {
		t.Fatal("expected arch validation error")
	}
}

func TestEvaluatorCaching(t *testing.T) {
	ev, m := matmulSetup(t)
	a := arch.Eyeriss()
	r1, err := ev.Evaluate(&a, m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ev.Evaluate(&a, m)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy != r2.Energy || r1.Cycles != r2.Cycles {
		t.Fatal("cached evaluation differs")
	}
	if len(ev.cache) != 1 {
		t.Fatalf("cache size = %d, want 1", len(ev.cache))
	}
}

func TestMappingClone(t *testing.T) {
	_, m := matmulSetup(t)
	c := m.Clone()
	c.Trips[0][0] = 99
	c.Perms[1][0] = 99
	if m.Trips[0][0] == 99 || m.Perms[1][0] == 99 {
		t.Fatal("Clone aliases memory")
	}
}

func TestUniformMappingConv(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "c", N: 1, K: 16, C: 8, H: 14, W: 14, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := UniformMapping(n)
	if err := n.CheckTrips(m.Trips); err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(n)
	a := arch.Eyeriss()
	r, err := ev.Evaluate(&a, m)
	if err != nil {
		t.Fatal(err)
	}
	// One PE, so IPC ≤ 1.
	if r.PEsUsed != 1 || r.IPC > 1 {
		t.Fatalf("uniform mapping should be sequential: PEs=%d IPC=%v", r.PEsUsed, r.IPC)
	}
	// Register footprint: with r,s pinned at level 0, the register tile
	// holds a 3×3 kernel window: In (3)(3)=9, Ker 9, Out 1 → 19 words.
	if r.RegFootprint != 19 {
		t.Fatalf("reg footprint = %v, want 19", r.RegFootprint)
	}
	if !r.Valid() {
		t.Fatalf("violations: %v", r.Violations)
	}
}

// Energy conservation property: doubling DRAM traffic (via a worse SRAM
// tiling) must not decrease total energy.
func TestEnergyMonotoneInTraffic(t *testing.T) {
	p := loopnest.MatMul(64, 64, 64)
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(n)
	a := arch.Eyeriss()
	good := &Mapping{
		Perms: dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1}),
		Trips: [][]int64{{4, 4, 4}, {4, 4, 4}, {2, 2, 1}, {2, 2, 4}},
	}
	bad := &Mapping{
		Perms: dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1}),
		Trips: [][]int64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}, {64, 64, 64}},
	}
	rg, err := ev.Evaluate(&a, good)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := ev.Evaluate(&a, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rb.TrafficDS <= rg.TrafficDS {
		t.Fatalf("expected worse DRAM traffic: %v vs %v", rb.TrafficDS, rg.TrafficDS)
	}
	if rb.Energy <= rg.Energy {
		t.Fatalf("energy not monotone: %v vs %v", rb.Energy, rg.Energy)
	}
}

// TestEvaluateDeep: on a four-level memory (registers, a per-PE
// scratchpad, the SRAM) each buffer is charged for the traffic into and
// out of it, each port for the same traffic (shared by the PEs when
// per-PE), and each capacity is checked. The nest must have one
// boundary per buffer of the architecture.
func TestEvaluateDeep(t *testing.T) {
	p := loopnest.MatMul(32, 32, 32)
	nest, err := dataflow.BuildNest(p, 3, 1, dataflow.RSAtRegister)
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Eyeriss()
	a.Regs, a.PEs = 32, 256
	a.Mid = []arch.Buffer{{Name: "spad", Words: 2048, Energy: 0.8, BW: 0.01, PerPE: true}}
	// Every trip 2: 2⁵ = 32 per iterator, 8 PEs.
	m := UniformMapping(nest)
	for li := range m.Trips {
		m.Trips[li] = []int64{2, 2, 2}
	}
	ev := NewEvaluator(nest)
	s, err := ev.Session(m.Perms)
	if err != nil {
		t.Fatal(err)
	}
	traffic, footprint, err := s.Sums(m.Trips)
	if err != nil {
		t.Fatal(err)
	}
	traffic, footprint = append([]float64(nil), traffic...), append([]float64(nil), footprint...)
	r, err := ev.Evaluate(&a, m)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Valid() || r.PEsUsed != 8 {
		t.Fatalf("violations %v, %d PEs used, want none and 8", r.Violations, r.PEsUsed)
	}
	for b, tr := range traffic {
		if tr <= 0 {
			t.Fatalf("boundary %d traffic %v", b, tr)
		}
	}
	want := Report{
		TrafficSR: traffic[0], TrafficDS: traffic[2],
		RegFootprint: footprint[0], SRAMFootprint: footprint[2],
		Mid: []BufferUse{{Traffic: traffic[1], Footprint: footprint[1]}},
	}
	if r.TrafficSR != want.TrafficSR || r.TrafficDS != want.TrafficDS || r.RegFootprint != want.RegFootprint ||
		r.SRAMFootprint != want.SRAMFootprint || len(r.Mid) != 1 || r.Mid[0] != want.Mid[0] {
		t.Fatalf("report %+v, want the boundary sums %+v", r, want)
	}
	bd := r.Breakdown
	if bd.RegFile != a.RegEnergy()*traffic[0] || bd.SRAM != a.SRAMEnergy()*(traffic[1]+traffic[2]) ||
		bd.DRAM != a.Tech.EnergyDRAM*traffic[2] || len(bd.Mid) != 1 || bd.Mid[0] != 0.8*(traffic[0]+traffic[1]) {
		t.Fatalf("breakdown %+v", bd)
	}
	if r.Energy != bd.Total() || r.Energy <= bd.Compute {
		t.Fatalf("energy %v, breakdown total %v, compute floor %v", r.Energy, bd.Total(), bd.Compute)
	}
	// The scratchpad's narrow port bounds the delay.
	if spad := (traffic[0] + traffic[1]) / 0.01 / 8; r.Cycles != spad {
		t.Fatalf("cycles %v, want the scratchpad port's %v", r.Cycles, spad)
	}
	// A clone keeps its buffer figures when the session moves on.
	clone := r.Clone()
	a.Mid[0].Words = 1
	m.Trips[1][0], m.Trips[2][0] = 1, 4
	if r, err = ev.Evaluate(&a, m); err != nil || r.Valid() || r.Mid[0] == want.Mid[0] {
		t.Fatalf("1-word scratchpad: err %v, violations %v, buffer %+v", err, r.Violations, r.Mid)
	}
	if clone.Mid[0] != want.Mid[0] || clone.Breakdown.Mid[0] != bd.Mid[0] {
		t.Fatalf("clone's buffer figures moved with the session: %+v, %v", clone.Mid, clone.Breakdown.Mid)
	}
	a.Mid = nil
	if _, err := ev.Evaluate(&a, m); err == nil {
		t.Fatal("a depth-2 architecture evaluated a depth-3 nest")
	}
}

package mapper

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/loopnest"
	"repro/internal/model"
)

func TestSearchMatmulFindsValidMapping(t *testing.T) {
	p := loopnest.MatMul(64, 64, 64)
	a := arch.Eyeriss()
	res, err := Search(p, &a, Options{Threads: 2, MaxTrials: 2000, Victory: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || !res.Report.Valid() {
		t.Fatalf("invalid best: %+v", res.Report)
	}
	if res.Valid == 0 || res.Trials < res.Valid {
		t.Fatalf("counters wrong: trials=%d valid=%d", res.Trials, res.Valid)
	}
	// Sanity: must beat the sequential uniform mapping on energy.
	if res.Report.EnergyPerMAC > 40 {
		t.Fatalf("pJ/MAC = %v, suspiciously high", res.Report.EnergyPerMAC)
	}
}

func TestSearchConvLayer(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "res3", N: 1, K: 64, C: 64, H: 56, W: 56, R: 1, S: 1,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Eyeriss()
	res, err := Search(p, &a, Options{Threads: 2, MaxTrials: 1500, Victory: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid() {
		t.Fatalf("violations: %v", res.Report.Violations)
	}
	// The paper's Fig. 4 reports the Eyeriss architecture in the
	// 20-30 pJ/MAC band; random search should land in a sane range.
	if res.Report.EnergyPerMAC < 15 || res.Report.EnergyPerMAC > 80 {
		t.Fatalf("pJ/MAC = %v out of sane range", res.Report.EnergyPerMAC)
	}
}

func TestSearchDelayCriterion(t *testing.T) {
	p := loopnest.MatMul(64, 64, 64)
	a := arch.Eyeriss()
	resE, err := Search(p, &a, Options{Criterion: MinEnergy, Threads: 2, MaxTrials: 1500, Victory: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resD, err := Search(p, &a, Options{Criterion: MinDelay, Threads: 2, MaxTrials: 1500, Victory: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resD.Report.Cycles > resE.Report.Cycles {
		t.Fatalf("delay search (%v cycles) worse than energy search (%v cycles)",
			resD.Report.Cycles, resE.Report.Cycles)
	}
	if resD.Report.IPC <= 1 {
		t.Fatalf("delay-optimized IPC = %v, expected parallel execution", resD.Report.IPC)
	}
}

func TestSearchDeterministicWithSeed(t *testing.T) {
	p := loopnest.MatMul(32, 32, 32)
	a := arch.Eyeriss()
	for _, threads := range []int{1, 2, 4} {
		opts := Options{Threads: threads, MaxTrials: 500, Victory: 200, Seed: 5}
		r1, err := Search(p, &a, opts)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Search(p, &a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Report.Energy != r2.Report.Energy || r1.Trials != r2.Trials || r1.Valid != r2.Valid ||
			!reflect.DeepEqual(r1.Mapping, r2.Mapping) {
			t.Fatalf("threads %d: non-deterministic: %v J, %d trials, %d valid vs %v J, %d trials, %d valid",
				threads, r1.Report.Energy, r1.Trials, r1.Valid, r2.Report.Energy, r2.Trials, r2.Valid)
		}
	}
}

func TestSearchRespectsPEBudget(t *testing.T) {
	p := loopnest.MatMul(64, 64, 64)
	a := arch.Arch{Name: "small", PEs: 4, Regs: 256, SRAM: 16384, Tech: arch.Tech45nm()}
	res, err := Search(p, &a, Options{Threads: 1, MaxTrials: 1000, Victory: 300, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.PEsUsed > 4 {
		t.Fatalf("PEsUsed = %d > 4", res.Report.PEsUsed)
	}
}

func TestScore(t *testing.T) {
	r := &model.Report{Energy: 10, Cycles: 20}
	if Score(MinEnergy, r) != 10 || Score(MinDelay, r) != 20 {
		t.Fatal("Score wrong")
	}
	if MinEnergy.String() != "energy" || MinDelay.String() != "delay" {
		t.Fatal("Criterion strings")
	}
}

package core

import (
	"math"
	"testing"

	"repro/internal/arch"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/workloads"
)

func testLayer(t *testing.T, name string) *loopnest.Problem {
	t.Helper()
	l, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown layer %s", name)
	}
	p, err := l.Problem()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOptimizeMatmulEnergy(t *testing.T) {
	p := loopnest.MatMul(256, 256, 256)
	a := arch.Eyeriss()
	res, err := Optimize(p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Report.Valid() {
		t.Fatalf("violations: %v", res.Best.Report.Violations)
	}
	// The relaxed GP objective is exact for matmul (no −1 extents), so
	// it must lower-bound the integer result up to integerization loss.
	gpPerMAC := res.Best.GPObjective / float64(p.Ops())
	intPerMAC := res.Best.Report.EnergyPerMAC
	if intPerMAC < gpPerMAC*0.999 {
		t.Fatalf("integer result %.4f below GP bound %.4f", intPerMAC, gpPerMAC)
	}
	if intPerMAC > gpPerMAC*1.5 {
		t.Fatalf("integerization lost too much: %.4f vs bound %.4f", intPerMAC, gpPerMAC)
	}
}

func TestOptimizeDelayFixedArch(t *testing.T) {
	p := testLayer(t, "resnet18_L9")
	a := arch.Eyeriss()
	res, err := Optimize(p, Options{Criterion: model.MinDelay, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Best.Report
	if !rep.Valid() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.IPC > 168 {
		t.Fatalf("IPC %v exceeds PE count", rep.IPC)
	}
	// Delay optimization should use a large fraction of the array on a
	// layer with ample parallelism.
	if rep.IPC < 84 {
		t.Fatalf("IPC %v below half the array; delay objective not effective", rep.IPC)
	}
}

func TestOptimizeDelayCoDesign(t *testing.T) {
	p := testLayer(t, "resnet18_L9")
	a := arch.Eyeriss()
	fixed, err := Optimize(p, Options{Criterion: model.MinDelay, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	cd, err := Optimize(p, Options{Criterion: model.MinDelay, Mode: CoDesign})
	if err != nil {
		t.Fatal(err)
	}
	if cd.Best.Arch.Area() > arch.EyerissAreaBudget()*1.0001 {
		t.Fatalf("co-design area %v over budget", cd.Best.Arch.Area())
	}
	// Co-design should buy many more PEs than Eyeriss's 168 by shrinking
	// register files (the paper's Fig. 8 orders-of-magnitude claim).
	if cd.Best.Report.IPC < 2*fixed.Best.Report.IPC {
		t.Fatalf("co-design IPC %.0f not well above fixed-arch IPC %.0f",
			cd.Best.Report.IPC, fixed.Best.Report.IPC)
	}
}

func TestOptimizeSmallArch(t *testing.T) {
	// A tiny architecture forces tight capacity constraints.
	p := loopnest.MatMul(64, 64, 64)
	a := arch.Arch{Name: "tiny", PEs: 4, Regs: 32, SRAM: 2048, Tech: arch.Tech45nm()}
	res, err := Optimize(p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Best.Report
	if !rep.Valid() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.RegFootprint > 32 || rep.SRAMFootprint > 2048 || rep.PEsUsed > 4 {
		t.Fatalf("capacities not respected: %+v", rep)
	}
}

func TestOptimizeInfeasibleArch(t *testing.T) {
	// Register file too small to hold even one word per tensor (the
	// level-1 kernel-loop placement needs at least 3 register words).
	p := testLayer(t, "resnet18_L6")
	a := arch.Arch{Name: "toosmall", PEs: 4, Regs: 2, SRAM: 2048, Tech: arch.Tech45nm()}
	_, err := Optimize(p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a})
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
}

func TestOptimizeRejectsBadArch(t *testing.T) {
	p := loopnest.MatMul(8, 8, 8)
	bad := arch.Arch{}
	if _, err := Optimize(p, Options{Arch: &bad}); err == nil {
		t.Fatal("expected arch validation error")
	}
}

func TestOptimizeStrideTwoLayer(t *testing.T) {
	p := testLayer(t, "resnet18_L4") // 3×3 stride-2
	a := arch.Eyeriss()
	res, err := Optimize(p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Report.Valid() {
		t.Fatalf("violations: %v", res.Best.Report.Violations)
	}
}

func TestOptimizeSevenBySevenStem(t *testing.T) {
	p := testLayer(t, "resnet18_L1") // 7×7 stride-2, C=3
	a := arch.Eyeriss()
	res, err := Optimize(p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Report.Valid() {
		t.Fatalf("violations: %v", res.Best.Report.Violations)
	}
	// The 7×7 window pins 49 In + 49 Ker words into the register tile.
	if res.Best.Report.RegFootprint < 99 {
		t.Fatalf("register footprint %v below the pinned kernel window", res.Best.Report.RegFootprint)
	}
}

func TestOptimizeHugeChannelLayer(t *testing.T) {
	p := testLayer(t, "yolo9000_L11") // K=28269 (divisors include prime 349)
	a := arch.Eyeriss()
	res, err := Optimize(p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Report.Valid() {
		t.Fatalf("violations: %v", res.Best.Report.Violations)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	p := testLayer(t, "resnet18_L8")
	a := arch.Eyeriss()
	opts := Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a, Parallel: 2}
	r1, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Optimize(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.Report.Energy != r2.Best.Report.Energy {
		t.Fatalf("non-deterministic: %v vs %v", r1.Best.Report.Energy, r2.Best.Report.Energy)
	}
}

func TestModeAndUtilizationOptions(t *testing.T) {
	p := loopnest.MatMul(128, 128, 128)
	a := arch.Eyeriss()
	res, err := Optimize(p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	// Reports carry the design's PE utilization, a fraction of the PEs.
	if rep := res.Best.Report; !rep.Valid() || rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Fatalf("design valid %v, utilization %v", rep.Valid(), rep.Utilization)
	}
	if FixedArch.String() != "fixedarch" || CoDesign.String() != "codesign" {
		t.Fatal("Mode strings")
	}
}

func TestEvaluateOn(t *testing.T) {
	p := testLayer(t, "resnet18_L8")
	a := arch.Eyeriss()
	res, err := Optimize(p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EvaluateOn(p, &a, res.Best)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Energy-res.Best.Report.Energy) > 1e-6*res.Best.Report.Energy {
		t.Fatalf("re-evaluation differs: %v vs %v", rep.Energy, res.Best.Report.Energy)
	}
}

func TestGPObjectiveTracksCriterion(t *testing.T) {
	// For delay, GPObjective is the relaxed cycle count; it must be
	// within the same magnitude as the model-evaluated cycles.
	p := testLayer(t, "resnet18_L9")
	a := arch.Eyeriss()
	res, err := Optimize(p, Options{Criterion: model.MinDelay, Mode: FixedArch, Arch: &a})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Best.Report.Cycles / res.Best.GPObjective
	if ratio < 0.5 || ratio > 20 {
		t.Fatalf("cycles %.4g vs GP bound %.4g (ratio %.2f)",
			res.Best.Report.Cycles, res.Best.GPObjective, ratio)
	}
}

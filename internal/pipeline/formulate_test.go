package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/solver"
)

func buildTestFormulation(t *testing.T, mode Mode, crit model.Criterion) (*formulation, *dataflow.Nest, *archVars) {
	t.Helper()
	p := loopnest.MatMul(64, 64, 64)
	nest, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := arch.Eyeriss()
	av := &archVars{mode: mode, tech: e.Tech, fixed: e, budget: arch.EyerissAreaBudget()}
	if mode == CoDesign {
		av.varR = nest.Vars.NewVar("arch_R")
		av.varS = nest.Vars.NewVar("arch_S")
		av.varP = nest.Vars.NewVar("arch_P")
	}
	varT := nest.Vars.NewVar("delay_T")
	perms := dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1})
	f, err := buildGP(nest, perms, av, crit, varT, false)
	if err != nil {
		t.Fatal(err)
	}
	return f, nest, av
}

func TestBuildGPEnergyFixedArchStructure(t *testing.T) {
	f, _, _ := buildTestFormulation(t, FixedArch, model.MinEnergy)
	names := strings.Join(f.prog.ConstraintNames(), ",")
	for _, want := range []string{"cap:registers", "cap:sram", "cap:pes", "trip>=1"} {
		if !strings.Contains(names, want) {
			t.Fatalf("missing constraint %q in %s", want, names)
		}
	}
	if strings.Contains(names, "area") {
		t.Fatal("fixed-arch GP must not have an area constraint")
	}
	if strings.Contains(names, "delay:") {
		t.Fatal("energy GP must not have delay constraints")
	}
	// 3 dims × 4 levels product equalities = 3 equalities, no pins for
	// matmul (all iterators free).
	if len(f.prog.Eq) != 3 {
		t.Fatalf("equalities = %d, want 3", len(f.prog.Eq))
	}
}

func TestBuildGPCoDesignStructure(t *testing.T) {
	f, _, _ := buildTestFormulation(t, CoDesign, model.MinEnergy)
	names := strings.Join(f.prog.ConstraintNames(), ",")
	if !strings.Contains(names, "area") || !strings.Contains(names, "arch>=1") {
		t.Fatalf("co-design constraints missing: %s", names)
	}
}

func TestBuildGPDelayStructure(t *testing.T) {
	f, _, _ := buildTestFormulation(t, FixedArch, model.MinDelay)
	names := strings.Join(f.prog.ConstraintNames(), ",")
	for _, want := range []string{"delay:compute", "delay:regfile", "delay:sram", "delay:dram"} {
		if !strings.Contains(names, want) {
			t.Fatalf("missing %q in %s", want, names)
		}
	}
	if !f.prog.Objective.IsMonomial() {
		t.Fatal("delay objective should be the single variable T")
	}
}

// TestGPSolutionFeasibleExactly: the solver's relaxed solution must
// satisfy the GP's own constraints.
func TestGPSolutionFeasibleExactly(t *testing.T) {
	for _, mode := range []Mode{FixedArch, CoDesign} {
		f, _, _ := buildTestFormulation(t, mode, model.MinEnergy)
		res, err := f.solve(solver.Options{Tol: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == solver.Infeasible {
			t.Fatalf("mode %v infeasible", mode)
		}
		if bad := f.prog.CheckFeasible(res.X, 1e-4); len(bad) > 0 {
			t.Fatalf("mode %v: violated %v", mode, bad)
		}
	}
}

// TestGPEnergyDecreasesWithLooserArea: a larger area budget can only
// improve the co-design optimum.
func TestGPEnergyDecreasesWithLooserArea(t *testing.T) {
	p := loopnest.MatMul(256, 256, 256)
	small, err := Execute(context.Background(), p, Options{
		Criterion: model.MinEnergy, Mode: CoDesign, AreaBudget: arch.EyerissAreaBudget() / 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Execute(context.Background(), p, Options{
		Criterion: model.MinEnergy, Mode: CoDesign, AreaBudget: arch.EyerissAreaBudget(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.Best.Report.EnergyPerMAC > small.Best.Report.EnergyPerMAC*1.02 {
		t.Fatalf("larger budget worse: %.3f vs %.3f",
			big.Best.Report.EnergyPerMAC, small.Best.Report.EnergyPerMAC)
	}
}

// TestHintWithinDomain: the initial hint must be strictly positive for
// every variable.
func TestHintWithinDomain(t *testing.T) {
	f, nest, _ := buildTestFormulation(t, CoDesign, model.MinDelay)
	h := f.hint()
	if len(h) != nest.Vars.Len() {
		t.Fatalf("hint length %d != vars %d", len(h), nest.Vars.Len())
	}
	for i, v := range h {
		if v <= 0 {
			t.Fatalf("hint[%d] = %v", i, v)
		}
	}
}

func TestArchVarsAccessors(t *testing.T) {
	e := arch.Eyeriss()
	fixed := &archVars{mode: FixedArch, tech: e.Tech, fixed: e}
	if fixed.regCapacity().Coeff != 512 || fixed.sramCapacity().Coeff != 65536 ||
		fixed.peCapacity().Coeff != 168 {
		t.Fatal("fixed capacities wrong")
	}
	if fixed.regEnergy().Coeff != e.RegEnergy() {
		t.Fatal("fixed regEnergy wrong")
	}
	if fixed.sramEnergy().Coeff != e.SRAMEnergy() {
		t.Fatal("fixed sramEnergy wrong")
	}
	_, _, av := buildTestFormulation(t, CoDesign, model.MinEnergy)
	if av.regCapacity().IsConst() || av.sramEnergy().IsConst() {
		t.Fatal("co-design accessors should reference variables")
	}
	// ε_S = σ_S·S^0.5.
	m := av.sramEnergy()
	if len(m.Terms) != 1 || m.Terms[0].Exp != 0.5 {
		t.Fatalf("sramEnergy = %+v, want exponent 0.5", m)
	}
}

// TestEnumerateRaw pins the pruning ablation's enumeration: with
// pruning disabled every permutation of a level's active iterators is
// its own class of Size 1 — n! distinct classes, as many as the pruned
// classes' sizes add up to.
func TestEnumerateRaw(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "conv", N: 1, K: 16, C: 16, H: 7, W: 7, R: 3, S: 3, StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nest, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{dataflow.StandardLevelL1, dataflow.StandardLevelSRAM} {
		n := len(nest.Levels[level].Active)
		fact := 1
		for i := 2; i <= n; i++ {
			fact *= i
		}
		raw, err := enumerate(nest, level, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != fact {
			t.Fatalf("level %d: %d raw classes, want %d! = %d", level, len(raw), n, fact)
		}
		seen := map[string]bool{}
		for _, c := range raw {
			key := fmt.Sprint(c.Perm)
			if c.Size != 1 || seen[key] {
				t.Fatalf("level %d: raw class %v of size %d (repeat %v)", level, c.Perm, c.Size, seen[key])
			}
			seen[key] = true
		}
		pruned, err := enumerate(nest, level, dataflow.SymmetricInvolutions(p), false)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, c := range pruned {
			total += c.Size
		}
		if total != fact || len(pruned) >= fact {
			t.Errorf("level %d: %d pruned classes covering %d permutations, want fewer than %d covering all", level, len(pruned), total, fact)
		}
	}
}

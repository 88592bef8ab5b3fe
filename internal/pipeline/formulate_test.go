package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/workloads"
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
	f, err := buildGP(nest, []int{0, 1, 2}, []int{0, 2, 1}, av, crit, varT, false)
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

// tableIIRuns builds, for every Table II layer and both RS placements,
// a run in the given mode that has been through the enumerate and
// formulate stages.
func tableIIRuns(t testing.TB, mode Mode) []*Run {
	t.Helper()
	var runs []*Run
	for _, l := range workloads.All() {
		p, err := l.Problem()
		if err != nil {
			t.Fatal(err)
		}
		for _, rs := range []dataflow.RSPlacement{dataflow.RSAtRegister, dataflow.RSAtLevel1} {
			opts := Options{Criterion: model.MinEnergy, Mode: mode, Parallel: 1}.WithDefaults()
			opts.Nest.RS = rs
			r, err := newRun(context.Background(), p, opts, NewScheduler(1))
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range []stage{enumerateStage{}, formulateStage{}} {
				if err := st.Run(r); err != nil {
					t.Fatal(err)
				}
			}
			runs = append(runs, r)
		}
	}
	return runs
}

// TestClassVolumesMatchPerPair checks that the formulate stage's
// per-class polynomials are, for every pair of every Table II layer
// under both placements, in fixed and co-design mode, exactly what
// Algorithm 1 builds for the pair itself: the relaxed, folded traffic
// at both boundaries, the relaxed footprints, and the capacity slacks.
func TestClassVolumesMatchPerPair(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Algorithm 1 for every pair of 23 layers")
	}
	for _, mode := range []Mode{FixedArch, CoDesign} {
		for _, r := range tableIIRuns(t, mode) {
			name := r.prob.Name + " " + r.opts.Nest.RS.String()
			if len(r.jobs) != len(r.classesL1)*len(r.classesSRAM) {
				t.Fatalf("%s: %d jobs for %d×%d classes", name, len(r.jobs), len(r.classesL1), len(r.classesSRAM))
			}
			cv := r.vols
			for _, j := range r.jobs {
				l1, sram := r.classesL1[j.l1].Perm, r.classesSRAM[j.sram].Perm
				vols, err := r.nest.ComputeVolumes(dataflow.StandardPerms(l1, sram))
				if err != nil {
					t.Fatal(err)
				}
				folded := vols.Folded()
				for _, c := range []struct {
					what      string
					got, want any
				}{
					{"trafficSR", cv.trafficSR[j.l1], folded.SumTraffic(0, true)},
					{"trafficDS", cv.trafficDS[j.sram], folded.SumTraffic(1, true)},
					{"regFoot", cv.regFoot, folded.SumFootprint(0, true)},
					{"sramFoot", cv.sramFoot, folded.SumFootprint(1, true)},
					{"register slack", cv.slackR, relaxSlack(vols, 0, folded.SumFootprint(0, true), onesAssignment(r.nest))},
					{"SRAM slack", cv.slackS, relaxSlack(vols, 1, folded.SumFootprint(1, true), onesAssignment(r.nest))},
				} {
					if !reflect.DeepEqual(c.got, c.want) {
						t.Fatalf("%s %v, pair %v × %v: %s differs from the pair's own", name, mode, l1, sram, c.what)
					}
				}
			}
		}
	}
}

// BenchmarkFormulate times the formulate rung of every Table II layer
// (fixed Eyeriss, energy, both placements): the formulate stage plus
// each pair's objective, as the solve stage assembles it.
func BenchmarkFormulate(b *testing.B) {
	runs := tableIIRuns(b, FixedArch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			if err := (formulateStage{}).Run(r); err != nil {
				b.Fatal(err)
			}
			for _, j := range r.jobs {
				if _, err := newFormulation(r.nest, r.vols, j.l1, j.sram, r.av, r.opts.Criterion, r.varT); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

package pipeline

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/gp"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/solver"
	"repro/internal/workloads"
)

// testGP is one class pair's program and its formulation, built as the
// solve stage's strict pass builds them.
type testGP struct {
	prog *gp.Program
	form *formulation
}

// buildGP builds the program of the copy-level orders l1 and sram.
func buildGP(nest *dataflow.Nest, l1, sram []int, av *archVars, crit model.Criterion, varT expr.VarID) (*testGP, error) {
	cv, err := newClassVolumes(nest, [][]dataflow.PermClass{{{Perm: l1}}, {{Perm: sram}}})
	if err != nil {
		return nil, err
	}
	form := &formulation{nest: nest, av: av, crit: crit, varT: varT, ops: float64(nest.Prob.Ops())}
	traffic := []expr.Poly{cv.traffic[0][0], cv.traffic[1][0]}
	objective, err := form.Objective(traffic)
	if err != nil {
		return nil, err
	}
	prog, err := form.Program(objective, traffic, cv.footprint, []float64{1, 1})
	if err != nil {
		return nil, err
	}
	return &testGP{prog: prog, form: form}, nil
}

func buildTestFormulation(t *testing.T, mode Mode, crit model.Criterion) (*testGP, *dataflow.Nest, *archVars) {
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
	f, err := buildGP(nest, []int{0, 1, 2}, []int{0, 2, 1}, av, crit, varT)
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

// TestBuildGPDeepStructure: with an intermediate buffer the program has
// one capacity and one delay port per buffer, innermost first, and its
// energy charges each boundary's traffic to the buffers on both sides.
func TestBuildGPDeepStructure(t *testing.T) {
	a := arch.Eyeriss()
	a.Mid = []arch.Buffer{{Name: "spad", Words: 2048, Energy: 0.8, BW: 8, PerPE: true}}
	opts := Options{Criterion: model.MinEDP, Arch: &a, Parallel: 1}.WithDefaults()
	r, err := newRun(context.Background(), loopnest.MatMul(64, 64, 64), opts, dataflow.RSAtRegister, NewScheduler(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []stage{enumerateStage{}, formulateStage{}} {
		if err := st.Run(r); err != nil {
			t.Fatal(err)
		}
	}
	_, traffic := r.job(0)
	if len(traffic) != 3 {
		t.Fatalf("%d boundaries, want 3", len(traffic))
	}
	objective, err := r.form.Objective(traffic)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := r.form.Program(objective, traffic, r.vols.footprint, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range prog.ConstraintNames() {
		if strings.HasPrefix(name, "delay:") || strings.HasPrefix(name, "cap:") {
			got = append(got, name)
		}
	}
	want := []string{"delay:compute", "delay:regfile", "delay:spad", "delay:sram", "delay:dram",
		"cap:registers", "cap:spad", "cap:sram", "cap:pes"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("constraints %v, want %v", got, want)
	}
	// At the all-ones point the energy is the compute term plus each
	// boundary's traffic at both of its sides' per-word energies.
	x := r.form.Hint()
	for i := range x {
		x[i] = 1
	}
	ops := float64(r.prob.Ops())
	energy := (4*a.RegEnergy() + a.Tech.EnergyMAC) * ops
	eps := []float64{a.RegEnergy(), 0.8, a.SRAMEnergy(), a.Tech.EnergyDRAM}
	for b, tr := range traffic {
		energy += (eps[b] + eps[b+1]) * tr.Eval(x)
	}
	// EDP at T = 1 is the energy.
	if got := objective.Eval(x); math.Abs(got-energy) > 1e-9*energy {
		t.Fatalf("objective at the all-ones point %v, want %v", got, energy)
	}
}

// TestGPSolutionFeasibleExactly: the solver's relaxed solution must
// satisfy the GP's own constraints.
func TestGPSolutionFeasibleExactly(t *testing.T) {
	for _, mode := range []Mode{FixedArch, CoDesign} {
		f, _, _ := buildTestFormulation(t, mode, model.MinEnergy)
		res, err := f.prog.Solve(f.form.Hint(), solver.Options{Tol: 1e-6})
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
	h := f.form.Hint()
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
			r, err := newRun(context.Background(), p, opts, rs, NewScheduler(1))
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
// per-class polynomials are, for every class tuple (L1 × SRAM pair) of
// every Table II layer under both placements, in fixed and co-design
// mode, exactly what Algorithm 1 builds for the tuple itself: the
// relaxed, folded traffic and footprint of both boundaries, and the
// capacity slacks.
func TestClassVolumesMatchPerPair(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Algorithm 1 for every pair of 23 layers")
	}
	for _, mode := range []Mode{FixedArch, CoDesign} {
		for _, r := range tableIIRuns(t, mode) {
			name := r.prob.Name + " " + r.rs.String()
			if want := len(r.classes[0]) * len(r.classes[1]); len(r.classes) != 2 || r.jobs != want {
				t.Fatalf("%s: %d jobs for %d copy levels' classes, want %d", name, r.jobs, len(r.classes), want)
			}
			cv := r.vols
			ones := r.nest.Assignment(r.nest.Vars.Len(), nil)
			for i := range r.jobs {
				perms, traffic := r.job(i)
				vols, err := r.nest.ComputeVolumes(perms)
				if err != nil {
					t.Fatal(err)
				}
				folded := vols.Folded()
				for b := range traffic {
					for _, c := range []struct {
						what      string
						got, want any
					}{
						{"traffic", traffic[b], folded.SumTraffic(b, true)},
						{"footprint", cv.footprint[b], folded.SumFootprint(b, true)},
						{"slack", cv.slack[b], relaxSlack(vols, b, folded.SumFootprint(b, true), ones)},
					} {
						if !reflect.DeepEqual(c.got, c.want) {
							t.Fatalf("%s %v, job %d (%v): boundary %d %s differs from the tuple's own", name, mode, i, perms, b, c.what)
						}
					}
				}
			}
		}
	}
}

// BenchmarkFormulate times the formulate rung of every Table II layer
// (fixed Eyeriss, energy, both placements): the formulate stage plus
// each tuple's objective, as the solve stage assembles it.
func BenchmarkFormulate(b *testing.B) {
	runs := tableIIRuns(b, FixedArch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range runs {
			if err := (formulateStage{}).Run(r); err != nil {
				b.Fatal(err)
			}
			for j := range r.jobs {
				_, traffic := r.job(j)
				if _, err := r.form.Objective(traffic); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

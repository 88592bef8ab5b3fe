package pipeline

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/solver"
	"repro/internal/workloads"
)

// TestCutoffSoundTableII checks the solver's cutoff on Table II tuple
// GPs, as phase B solves them: every fifth tuple of each layer, for
// energy and delay, fixed and co-design, solved in full from the cold
// hint with the tuple's objective lower bound, then again with cutoffs
// around that optimum f. A solve cut off at a cutoff must have f above
// it, and a solve that is not cut off must be the full solve bit for
// bit.
func TestCutoffSoundTableII(t *testing.T) {
	offsets := []float64{-1e-2, -1e-4, -1e-6, -1e-8, 0, 1e-9, 1e-6}
	cuts := 0
	for _, mode := range []Mode{FixedArch, CoDesign} {
		for _, crit := range []model.Criterion{model.MinEnergy, model.MinDelay} {
			for _, l := range workloads.All() {
				p, err := l.Problem()
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{Criterion: crit, Mode: mode, Parallel: 1}.WithDefaults()
				r, err := newRun(context.Background(), p, opts, dataflow.RSAtRegister, NewScheduler(1))
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range []stage{enumerateStage{}, formulateStage{}} {
					if err := st.Run(r); err != nil {
						t.Fatal(err)
					}
				}
				bc := newBoundCtx(r.nest, r.form)
				ones := make([]float64, len(r.vols.slack))
				for b := range ones {
					ones[b] = 1
				}
				ws := solver.NewWorkspace()
				for i := 0; i < r.jobs; i += 5 {
					_, traffic := r.job(i)
					objective, err := r.form.Objective(traffic)
					if err != nil {
						t.Fatal(err)
					}
					prog, err := r.form.Program(objective, traffic, r.vols.footprint, ones)
					if err != nil {
						t.Fatal(err)
					}
					sopts := solver.Options{Tol: solverTol, LowerBound: bc.lowerBound(objective), Workspace: ws}
					full, err := prog.Solve(r.form.Hint(), sopts)
					if err != nil {
						t.Fatal(err)
					}
					if full.Status != solver.Optimal {
						continue
					}
					for _, d := range offsets {
						sopts.Cutoff = full.Objective * (1 + d)
						res, err := prog.Solve(r.form.Hint(), sopts)
						if err != nil {
							t.Fatal(err)
						}
						if res.Status == solver.CutOff {
							cuts++
							if full.Objective <= sopts.Cutoff {
								t.Errorf("%s %v %v job %d: cut off at %v, but the full solve reached %v",
									l.Name(), mode, crit, i, sopts.Cutoff, full.Objective)
							}
							continue
						}
						if res.Status != full.Status || res.Newton != full.Newton ||
							res.Objective != full.Objective || !slices.Equal(res.X, full.X) {
							t.Errorf("%s %v %v job %d: uncut solve at cutoff f·(1%+g) differs from the full solve",
								l.Name(), mode, crit, i, d)
						}
					}
				}
			}
		}
	}
	if cuts == 0 {
		t.Fatal("no solve was cut off: the test checks nothing")
	}
}

// solveEnds records the solve_end events of a run in emission order.
type solveEnds struct {
	mu  sync.Mutex
	evs []obs.SolveEnd
}

func (s *solveEnds) Emit(ev obs.Event) {
	if e, ok := ev.(*obs.SolveEnd); ok {
		s.mu.Lock()
		end := *e
		end.WallUS = 0
		s.evs = append(s.evs, end)
		s.mu.Unlock()
	}
}

// TestCutoffRerunsOwedTuple drives phase B's rerun of a cut-off tuple.
// Tuple j is cut off because the next tuple to solve, k, has a strictly
// feasible cold hint. If k then ends infeasible, the tuple after it
// would read j's optimum as its warm hint, so j must finish first; if
// k finishes, that tuple reads k's optimum and j stays cut off. No
// Table II tuple ends infeasible, so the test substitutes coldFeasible:
// every tuple after k in its group gets a warm start, and in the first
// case k an unsatisfiable constraint. Against the same run with the
// cutoff off, the solutions must be identical bit for bit, bar those
// of the tuples left cut off, and the stats must count each solve once:
// the solve_end events that did not stop at the cutoff are the
// reference's, bar the solves of the tuples left cut off.
func TestCutoffRerunsOwedTuple(t *testing.T) {
	key := func(perms [][]int) string { return fmt.Sprint(perms) }
	var p *loopnest.Problem
	pass := func(opts Options, cut bool) (*Run, map[string]Solved, []obs.SolveEnd) {
		t.Helper()
		defer func(on bool) { cutoffs = on }(cutoffs)
		cutoffs = cut
		sink := &solveEnds{}
		ctx := obs.NewContext(context.Background(), &obs.Obs{Events: sink})
		r, err := newRun(ctx, p, opts.WithDefaults(), dataflow.RSAtRegister, NewScheduler(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []stage{enumerateStage{}, formulateStage{}} {
			if err := st.Run(r); err != nil {
				t.Fatal(err)
			}
		}
		solved, err := r.solvePass(false)
		if err != nil {
			t.Fatal(err)
		}
		byKey := make(map[string]Solved, len(solved))
		for _, sp := range solved {
			byKey[key(sp.Perms)] = sp
		}
		return r, byKey, sink.evs
	}
	opts := Options{Criterion: model.MinEnergy, Mode: FixedArch, Parallel: 1}

	// Pick j: the first tuple of the Table II layers that the default
	// run cuts off with two more solved tuples, k and the next, after it
	// in its group.
	var r *Run
	groupSize, j, k := 0, -1, -1
	for _, l := range workloads.All() {
		var err error
		if p, err = l.Problem(); err != nil {
			t.Fatal(err)
		}
		var ref, def map[string]Solved
		r, ref, _ = pass(opts, false)
		_, def, _ = pass(opts, true)
		groupSize = len(r.classes[len(r.classes)-1])
		var jobs []int
		for i := 0; i < r.jobs; i++ {
			if perms, _ := r.job(i); ref[key(perms)].Perms != nil {
				jobs = append(jobs, i)
			}
		}
		for n := 0; n+2 < len(jobs) && j < 0; n++ {
			perms, _ := r.job(jobs[n])
			if _, solved := def[key(perms)]; !solved && jobs[n]/groupSize == jobs[n+2]/groupSize {
				j, k = jobs[n], jobs[n+1]
			}
		}
		if j >= 0 {
			t.Logf("%s: job %d cut off before job %d", l.Name(), j, k)
			break
		}
	}
	if j < 0 {
		t.Fatal("no cut-off tuple with two solved tuples after it in its group")
	}
	jPerms, _ := r.job(j)

	defer func(f func(*tuple, []float64) bool) { coldFeasible = f }(coldFeasible)
	for _, infeasible := range []bool{true, false} {
		t.Run(fmt.Sprintf("k infeasible=%v", infeasible), func(t *testing.T) {
			coldFeasible = func(tp *tuple, x []float64) bool {
				switch {
				case tp.i == k:
					if infeasible {
						if err := tp.prog.AddLessEq("unsatisfiable", expr.PolyConst(2), expr.Const(1)); err != nil {
							t.Fatal(err)
						}
						return true
					}
				case tp.i > k && tp.i/groupSize == k/groupSize:
					return false
				}
				return coldHintFeasible(tp.prog, x)
			}
			rRef, ref, refEvs := pass(opts, false)
			rDef, def, defEvs := pass(opts, true)

			reruns := 0
			if infeasible {
				reruns = 1
			}
			if _, ok := def[key(jPerms)]; ok != infeasible {
				t.Fatalf("job %d has a solution: %v, want %v", j, ok, infeasible)
			}
			cut := 0
			for kk, want := range ref {
				got, ok := def[kk]
				if !ok {
					cut++
					continue
				}
				if got.Objective != want.Objective || !slices.Equal(got.X, want.X) {
					t.Errorf("tuple %s: solution differs from the run without cutoffs", kk)
				}
			}
			if len(def) > len(ref)-cut {
				t.Errorf("%d solutions, the run without cutoffs has %d of them", len(def), len(ref)-cut)
			}

			ds, rs := rDef.stats, rRef.stats
			if (rs.Infeasible > 0) != infeasible || rs.CutOff != 0 {
				t.Fatalf("reference run: %d infeasible, %d cut off", rs.Infeasible, rs.CutOff)
			}
			if ds.CutOff != cut {
				t.Errorf("Stats.CutOff = %d, but %d tuples are left without a solution", ds.CutOff, cut)
			}
			if ds.PairsSolved != rs.PairsSolved || ds.Infeasible != rs.Infeasible || ds.Pruned != rs.Pruned {
				t.Errorf("stats differ from the run without cutoffs\ncutoff: %+v\nnone:   %+v", ds, rs)
			}
			for _, c := range []struct {
				name  string
				stats Stats
				evs   []obs.SolveEnd
			}{{"cutoff", ds, defEvs}, {"none", rs, refEvs}} {
				newton := 0
				for _, e := range c.evs {
					if e.Status != solver.Infeasible.String() {
						newton += e.Newton
					}
				}
				if c.stats.NewtonIters != newton {
					t.Errorf("%s: Stats.NewtonIters = %d, its solve_end events sum to %d", c.name, c.stats.NewtonIters, newton)
				}
			}
			// The finished solves are the reference's, bar the solves of
			// the tuples left cut off; a rerun moves j's after k's.
			missing := make(map[obs.SolveEnd]int)
			for _, e := range refEvs {
				missing[e]++
			}
			cutEvs := 0
			for _, e := range defEvs {
				if e.Status == solver.CutOff.String() {
					cutEvs++
					continue
				}
				if missing[e] == 0 {
					t.Errorf("solve %+v is not one of the reference's", e)
				}
				missing[e]--
			}
			if cutEvs != ds.CutOff+reruns {
				t.Errorf("%d solves cut off, %d rerun, but Stats.CutOff = %d", cutEvs, reruns, ds.CutOff)
			}
			left := 0
			for _, n := range missing {
				left += n
			}
			if left != cut {
				t.Errorf("%d of the reference's solves are missing, %d tuples left cut off", left, cut)
			}
		})
	}
}

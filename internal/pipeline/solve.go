package pipeline

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/gp"
	"repro/internal/obs"
	"repro/internal/solver"
)

// solveStage runs one GP per class tuple through the shared scheduler.
// When every strict GP is infeasible (tiny capacities plus the
// posynomial overestimate), a second pass loosens the capacity bounds
// by the relaxation's worst-case slack (see classVolumes). It keeps the tie
// band of the topClasses best relaxed optima (see topBand), so the set
// handed to integerization — and therefore the final design — is the
// same across runs regardless of scheduler width, completion order or
// the last bits of each solve (cached and uncached runs must produce
// byte-identical results).
type solveStage struct{}

func (solveStage) Name() string { return "solve" }

func (solveStage) Run(r *Run) error {
	solved, err := r.solvePass(false)
	if err != nil {
		return err
	}
	if len(solved) == 0 {
		solved, err = r.solvePass(true)
		if err != nil {
			return err
		}
	}
	if len(solved) == 0 {
		return fmt.Errorf("%w: all %d permutation classes infeasible", ErrNoDesign, r.jobs)
	}
	r.solved = topBand(solved)
	return nil
}

// topBand returns the tuples to integerize: at least the topClasses
// best relaxed optima, plus every tuple that ties the last of them,
// kth, within the solver's relative gap solverTol, in class-key order
// (lexicographic over the copy levels' permutations, inner to outer).
// Relaxed optima of different tuples can be equal, and a solve
// resolves them only to solverTol, so ranking them by their last bits
// would let rounding pick the design; inside the band the exact
// integer score decides. Neither the set nor its order depends on the
// input order or on objective differences below solverTol·kth. It
// reorders solved in place.
func topBand(solved []Solved) []Solved {
	objs := make([]float64, len(solved))
	for i, sp := range solved {
		objs[i] = sp.Objective
	}
	slices.Sort(objs)
	limit := bandLimit(objs[min(topClasses, len(objs))-1], solverTol)
	band := slices.DeleteFunc(solved, func(sp Solved) bool { return sp.Objective > limit })
	slices.SortFunc(band, func(a, b Solved) int {
		// Levels that are not copy levels hold nil and compare equal.
		for li := range a.Perms {
			if c := slices.Compare(a.Perms[li], b.Perms[li]); c != 0 {
				return c
			}
		}
		return 0
	})
	return band
}

// bandLimit is the largest relaxed objective that ties kth within the
// relative tolerance tol. Objectives are posynomial values, so positive.
func bandLimit(kth, tol float64) float64 { return kth * (1 + tol) }

// prunable reports whether a tuple whose objective is at least lower can
// be skipped: only when it cannot enter the tie band of threshold, the
// k-th smallest objective known so far.
func prunable(lower, threshold, tol float64) bool { return lower > bandLimit(threshold, tol) }

// solvePass solves the tuple jobs in two deterministic phases and
// collects the feasible solutions in job order.
//
// The jobs are the cross product of the copy levels' classes, laid out
// (see Run.job) as contiguous groups of len(outermost level's
// classes) jobs sharing every other class. Phase A cold-solves the
// first job of every group; the topClasses-th smallest feasible seed
// objective becomes the global prune threshold. Phase B walks each
// group sequentially, warm-starting every solve from the group's
// previous solution, skipping tuples whose objective lower bound
// (boundCtx) exceeds bandLimit of the threshold, and stopping each
// solve once the solver certifies that its optimum exceeds that limit
// (solver.Options.Cutoff).
//
// All three optimizations preserve the exact result set. Warm starts
// only move the interior-point starting iterate. Pruning and cutoffs
// are conservative: a pruned or cut-off tuple's true optimum exceeds
// bandLimit(threshold), and at least topClasses deterministically-chosen
// solves sit at or below the threshold, so the tuple could never have
// entered the tie band, nor moved the threshold. A cut-off tuple's
// point is not its optimum, so it is cut off only when no later tuple
// reads it as a warm hint (see the look-ahead below). The threshold
// tightens per group using only that group's own solves plus the
// global seeds, keeping every decision independent of scheduler width
// and completion order. Per-job results land in distinct slots, so
// only the shared stats need a lock; admission stops at the first
// error or context cancellation.
func (r *Run) solvePass(capSlack bool) ([]Solved, error) {
	o := r.obs
	tracing := o.TracingEnabled()
	passSpan := o.StartSpan(r.parent, "gp-solve-pass")
	if passSpan != nil {
		passSpan.Annotate(obs.Int("jobs", r.jobs), obs.Attr{Key: "cap_slack", Value: capSlack})
	}
	defer passSpan.End()
	results := make([]*Solved, r.jobs)
	// The strict pass holds every footprint to its buffer's capacity.
	slack := r.vols.slack
	if !capSlack {
		slack = make([]float64, len(slack))
		for b := range slack {
			slack[b] = 1
		}
	}
	var mu sync.Mutex
	// Admission happens under the pass span so scheduler queue waits
	// show up as its sched-wait children.
	ctx := obs.ContextWithSpan(r.ctx, passSpan)

	inner, outer := r.copyLevels[0], r.copyLevels[len(r.copyLevels)-1]

	// The objective lower bound of every tuple both prunes and starts
	// its solve (solver.Options.LowerBound), so it is computed whether
	// pruning is on or off: each solve starts at the same barrier
	// parameter under either ablation.
	bc := newBoundCtx(r.nest, r.form)
	cold := r.form.Hint()

	// pairSpan opens the gp-pair span of the tuple of perms when tracing.
	pairSpan := func(perms [][]int) *obs.Span {
		if !tracing {
			return nil
		}
		return o.StartSpan(passSpan, "gp-pair",
			obs.Stringer("perm_l1", perms[inner]), obs.Stringer("perm_sram", perms[outer]))
	}

	// formulate formulates job i: its objective and the objective's
	// lower bound (the cheap half), and its program unless the bound
	// cannot enter the tie band of threshold (+Inf prunes nothing). The
	// threshold only tightens, so a tuple formulated without a program
	// stays pruned. When tracing, the tuple's gp-pair span opens here
	// and ends when the tuple is pruned or solved.
	formulate := func(i int, threshold float64) (*tuple, error) {
		perms, traffic := r.job(i)
		tp := &tuple{i: i, perms: perms, span: pairSpan(perms)}
		fspan := o.StartSpan(tp.span, "formulate")
		objective, err := r.form.Objective(traffic)
		if err == nil {
			tp.lower = bc.lowerBound(objective)
			if !prunable(tp.lower, threshold, solverTol) {
				tp.prog, err = r.form.Program(objective, traffic, r.vols.footprint, slack)
			}
		}
		fspan.End()
		if err != nil {
			tp.span.End()
			return nil, err
		}
		if tp.prog != nil {
			tp.coldFeasible = coldFeasible(tp, cold)
		}
		return tp, nil
	}

	// pruned records tp as skipped by its bound.
	pruned := func(tp *tuple) {
		mu.Lock()
		r.stats.Pruned++
		mu.Unlock()
		if tp.span != nil {
			tp.span.Annotate(obs.String("status", "pruned"))
			tp.span.End()
		}
	}

	// solve solves the formulated tuple tp on the given workspace.
	// xHint, when non-nil, warm-starts the solve from a neighboring
	// solution (positive space). The solve stops once its optimum
	// provably exceeds cutoff (+Inf runs it to the end). It returns the
	// tuple's solution, nil when it is infeasible or was cut off, and
	// whether it was cut off. A rerun of a cut-off tuple counts as the
	// same solve: it moves the tuple from CutOff back to a finished one.
	solve := func(tp *tuple, ws *solver.Workspace, xHint []float64, cutoff float64, rerun bool) (*Solved, bool, error) {
		// A strictly feasible cold hint beats the neighbor's solution:
		// the analytic hint is well-centered, while a neighboring optimum
		// hugs its active constraints and costs extra damped Newton steps
		// at the first centerings. With every path starting at its
		// bound's gap, always taking the warm hint still cost 13% more
		// Newton iterations over the fixed-energy sweep of the Table II
		// layers (77,595 against 68,787). The warm hint pays off exactly
		// when the cold hint would force a phase-I solve that the
		// neighbor's point can skip.
		warmStart := xHint != nil && !tp.coldFeasible
		if !warmStart {
			xHint = cold
		}
		res, err := tp.prog.Solve(xHint, solver.Options{
			Tol:        solverTol,
			LowerBound: tp.lower,
			Cutoff:     cutoff,
			Obs:        o,
			Span:       tp.span,
			Workspace:  ws,
			WarmStart:  warmStart,
		})
		var sp *Solved
		mu.Lock()
		if rerun {
			r.stats.CutOff--
		} else {
			r.stats.PairsSolved++
		}
		if err == nil {
			switch res.Status {
			case solver.Infeasible:
				r.stats.Infeasible++
			case solver.CutOff:
				r.stats.CutOff++
				r.stats.NewtonIters += res.Newton
			case solver.Suboptimal:
				r.stats.Suboptimal++
				fallthrough
			case solver.Optimal:
				r.stats.NewtonIters += res.Newton
				sp = &Solved{Perms: tp.perms, X: res.X, Objective: res.Objective}
				results[tp.i] = sp
			}
		}
		mu.Unlock()
		tp.span.End()
		return sp, err == nil && res.Status == solver.CutOff, err
	}

	// The jobs form nGroups contiguous groups of groupSize, one job per
	// class of the outermost copy level (see Run.job).
	groupSize := len(r.classes[len(r.classes)-1])
	if groupSize == 0 || r.jobs == 0 {
		return nil, nil
	}
	nGroups := r.jobs / groupSize
	warm := !r.opts.DisableWarmStart
	prune := !r.opts.DisableBoundPruning

	// Phase A: cold-solve each group's first tuple. Seeds are never
	// pruned nor cut off, so the threshold below is derived from a fixed
	// job set.
	err := r.sched.ForEach(ctx, nGroups, func(g int) error {
		ws := r.getWS()
		defer r.putWS(ws)
		tp, err := formulate(g*groupSize, math.Inf(1))
		if err != nil {
			return err
		}
		_, _, err = solve(tp, ws, nil, math.Inf(1), false)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Prune threshold: with k = topClasses, only the k smallest
	// objectives and their ties within solverTol survive into
	// integerization, and the seeds already supply candidates at or
	// below their k-th smallest — any tuple whose objective provably
	// exceeds bandLimit of it is skippable. Fewer than k feasible
	// seeds means no pruning (threshold +Inf), which also keeps the
	// capSlack retry exact: a pass with zero feasible solves never
	// pruned anything.
	var seedObjs []float64
	if prune {
		seedObjs = make([]float64, 0, nGroups)
		for g := 0; g < nGroups; g++ {
			if sp := results[g*groupSize]; sp != nil {
				seedObjs = append(seedObjs, sp.Objective)
			}
		}
		sort.Float64s(seedObjs)
	}
	// Phase B: walk each group sequentially, chaining warm starts and
	// tightening the group-local threshold as solutions arrive. The
	// threshold set is the global seeds plus this group's completed
	// solves — never another group's — so pruning decisions do not
	// depend on cross-group timing.
	err = r.sched.ForEach(ctx, nGroups, func(g int) error {
		ws := r.getWS()
		defer r.putWS(ws)
		var known []float64
		threshold := math.Inf(1)
		if prune {
			known = append(make([]float64, 0, len(seedObjs)+groupSize-1), seedObjs...)
			if len(known) >= topClasses {
				threshold = known[topClasses-1]
			}
		}
		var hint []float64
		if seed := results[g*groupSize]; warm && seed != nil {
			hint = seed.X
		}
		// tuples holds the group's tuples formulated ahead of their turn;
		// owed is the last cut-off tuple when no solve has finished since,
		// whose optimum the hint would hold had it run to the end.
		tuples := make([]*tuple, groupSize)
		// An error ends the group early: end the spans of the tuples
		// formulated ahead of their turn.
		defer func() {
			for _, tp := range tuples {
				if tp != nil {
					tp.span.End()
				}
			}
		}()
		var owed *tuple
		take := func(idx int) (*tuple, error) {
			var err error
			if tuples[idx] == nil {
				tuples[idx], err = formulate(g*groupSize+idx, threshold)
			}
			return tuples[idx], err
		}
		for idx := 1; idx < groupSize; idx++ {
			tp, err := take(idx)
			if err != nil {
				return err
			}
			tuples[idx] = nil
			if prunable(tp.lower, threshold, solverTol) {
				pruned(tp)
				continue
			}
			// Look ahead: a cut-off leaves the threshold as it is, so the
			// next tuple not pruned under it solves next, and reads this
			// one's point exactly when its own cold hint is not strictly
			// feasible. Then this tuple must finish.
			cutoff := bandLimit(threshold, solverTol)
			if !cutoffs {
				cutoff = math.Inf(1)
			}
			for k := idx + 1; warm && !math.IsInf(cutoff, 1) && k < groupSize; k++ {
				next, err := take(k)
				if err != nil {
					return err
				}
				if !prunable(next.lower, threshold, solverTol) {
					if !next.coldFeasible {
						cutoff = math.Inf(1)
					}
					break
				}
			}
			// A tuple solved after the cut-off one was infeasible, so
			// this one reads the cut-off tuple's optimum: finish it first.
			if owed != nil && warm && !tp.coldFeasible {
				owed.span = pairSpan(owed.perms)
				sp, _, err := solve(owed, ws, hint, math.Inf(1), true)
				if err != nil {
					return err
				}
				if sp != nil {
					hint = sp.X
				}
				owed = nil
			}
			sp, cut, err := solve(tp, ws, hint, cutoff, false)
			if err != nil {
				return err
			}
			if cut {
				owed = tp
			}
			if sp == nil {
				continue
			}
			owed = nil
			if warm {
				hint = sp.X
			}
			if prune {
				pos := sort.SearchFloat64s(known, sp.Objective)
				known = append(known, 0)
				copy(known[pos+1:], known[pos:])
				known[pos] = sp.Objective
				if len(known) >= topClasses {
					threshold = known[topClasses-1]
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	solved := make([]Solved, 0, len(results))
	for _, sp := range results {
		if sp != nil {
			solved = append(solved, *sp)
		}
	}
	return solved, nil
}

// tuple is job i formulated for solving: its permutations (see
// Run.job), its objective's lower bound, its program (nil while it is
// pruned) and whether the cold hint is strictly feasible for it, and its
// gp-pair span when tracing.
type tuple struct {
	i            int
	perms        [][]int
	lower        float64
	prog         *gp.Program
	coldFeasible bool
	span         *obs.Span
}

// cutoffs turns phase B's solver cutoff on. Tests turn it off for a
// reference run in which every solve runs to the end.
var cutoffs = true

// coldFeasible reports whether the cold hint x is strictly feasible
// for the formulated tuple tp, which routes tp's solve and the cutoff
// of the tuple before it. Tests substitute it to drive phase B down
// paths the Table II layers do not take.
var coldFeasible = func(tp *tuple, x []float64) bool { return coldHintFeasible(tp.prog, x) }

// coldHintFeasible reports whether the cold hint x lies strictly inside
// every inequality constraint of prog (in the original positive
// variables; the solver re-checks after projecting onto the equality
// manifold either way, so this is a routing heuristic, not a proof).
func coldHintFeasible(prog *gp.Program, x []float64) bool {
	for _, c := range prog.Ineq {
		if c.Eval(x) >= 1 {
			return false
		}
	}
	return true
}

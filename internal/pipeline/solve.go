package pipeline

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/solver"
)

// solveStage runs one GP per class pair through the shared scheduler.
// When every strict GP is infeasible (tiny capacities plus the
// posynomial overestimate), a second pass loosens the capacity bounds
// by the relaxation's worst-case slack (see buildGP). It keeps the tie
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
		return fmt.Errorf("%w: all %d permutation classes infeasible", ErrNoDesign, len(r.jobs))
	}
	r.solved = topBand(solved)
	return nil
}

// topBand returns the pairs to integerize: at least the topClasses
// best relaxed optima, plus every pair that ties the last of them, kth,
// within the solver's relative gap solverTol, in permutation-key order
// (L1, then SRAM). Relaxed optima of different pairs can be equal, and
// a solve resolves them only to solverTol, so ranking them by their
// last bits would let rounding pick the design; inside the band the
// exact integer score decides. Neither the set nor its order depends
// on the input order or on objective differences below solverTol·kth.
// It reorders solved in place.
func topBand(solved []solvedPair) []solvedPair {
	objs := make([]float64, len(solved))
	for i, sp := range solved {
		objs[i] = sp.objective
	}
	slices.Sort(objs)
	limit := bandLimit(objs[min(topClasses, len(objs))-1], solverTol)
	band := slices.DeleteFunc(solved, func(sp solvedPair) bool { return sp.objective > limit })
	slices.SortFunc(band, func(a, b solvedPair) int {
		if c := slices.Compare(a.permL1, b.permL1); c != 0 {
			return c
		}
		return slices.Compare(a.permSRAM, b.permSRAM)
	})
	return band
}

// bandLimit is the largest relaxed objective that ties kth within the
// relative tolerance tol. Objectives are posynomial values, so positive.
func bandLimit(kth, tol float64) float64 { return kth * (1 + tol) }

// prunable reports whether a pair whose objective is at least lower can
// be skipped: only when it cannot enter the tie band of threshold, the
// k-th smallest objective known so far.
func prunable(lower, threshold, tol float64) bool { return lower > bandLimit(threshold, tol) }

// solvePass solves the pair jobs in two deterministic phases and
// collects the feasible solutions in job order.
//
// The job list is the L1×SRAM class cross product, laid out as
// contiguous groups of len(classesSRAM) jobs sharing one L1 class.
// Phase A cold-solves the first job of every group; the topClasses-th
// smallest feasible seed objective becomes the global prune threshold.
// Phase B walks each group sequentially, warm-starting every solve from
// the group's previous solution and skipping pairs whose objective
// lower bound (boundCtx) exceeds bandLimit of the threshold.
//
// Both optimizations preserve the exact result set. Warm starts only
// move the interior-point starting iterate. Pruning is conservative: a
// pruned pair's true optimum exceeds bandLimit(threshold), and at least
// topClasses deterministically-chosen solves sit at or below the
// threshold, so the pruned pair could never have entered the tie band.
// The threshold tightens per group using only that group's own solves
// plus the global seeds, keeping every decision independent of
// scheduler width and completion order. Per-job results land in
// distinct slots, so only the shared stats need a lock; admission stops
// at the first error or context cancellation.
func (r *Run) solvePass(capSlack bool) ([]solvedPair, error) {
	o := r.obs
	tracing := o.TracingEnabled()
	passSpan := o.StartSpan(r.parent, "gp-solve-pass")
	if passSpan != nil {
		passSpan.Annotate(obs.Int("jobs", len(r.jobs)), obs.Attr{Key: "cap_slack", Value: capSlack})
	}
	defer passSpan.End()
	// Hoisted metric handles: nil no-ops when telemetry is off, so the
	// job body pays only nil checks.
	pairsC := o.Counter("core.pairs_solved")
	infeasC := o.Counter("core.gp_infeasible")
	subC := o.Counter("core.gp_suboptimal")
	prunedC := o.Counter("core.pairs_pruned")
	results := make([]*solvedPair, len(r.jobs))
	var mu sync.Mutex
	// Admission happens under the pass span so scheduler queue waits
	// show up as its sched-wait children.
	ctx := obs.ContextWithSpan(r.ctx, passSpan)

	// solveJob formulates and solves job i on the given workspace.
	// xHint, when non-nil, warm-starts the solve from a neighboring
	// solution (positive space). bound, when non-nil, may prune the pair
	// after the cheap half of formulation; pruned pairs return nil.
	solveJob := func(i int, ws *solver.Workspace, xHint []float64, bound func(*formulation) bool) (*solvedPair, error) {
		j := r.jobs[i]
		permL1, permSRAM := r.classesL1[j.l1].Perm, r.classesSRAM[j.sram].Perm
		var pairSpan *obs.Span
		if tracing {
			pairSpan = o.StartSpan(passSpan, "gp-pair",
				obs.Stringer("perm_l1", permL1), obs.Stringer("perm_sram", permSRAM))
		}
		fspan := o.StartSpan(pairSpan, "formulate")
		f, err := newFormulation(r.nest, r.vols, j.l1, j.sram, r.av, r.opts.Criterion, r.varT)
		if err != nil {
			fspan.End()
			pairSpan.End()
			return nil, err
		}
		if bound != nil && bound(f) {
			fspan.End()
			prunedC.Inc()
			mu.Lock()
			r.stats.Pruned++
			mu.Unlock()
			if pairSpan != nil {
				pairSpan.Annotate(obs.String("status", "pruned"))
				pairSpan.End()
			}
			return nil, nil
		}
		err = f.finish(capSlack)
		fspan.End()
		if err != nil {
			pairSpan.End()
			return nil, err
		}
		if xHint != nil && coldHintFeasible(f) {
			// A strictly feasible cold hint beats the neighbor's solution:
			// the analytic hint is well-centered, while a neighboring
			// optimum hugs its active constraints and costs extra damped
			// Newton steps at the first centerings (measured ~15% more
			// iterations on the Table II layers). The warm hint pays off
			// exactly when the cold hint would force a phase-I solve that
			// the neighbor's point can skip.
			xHint = nil
		}
		res, err := f.solveFrom(xHint, solver.Options{
			Tol:       solverTol,
			Obs:       o,
			Span:      pairSpan,
			Workspace: ws,
			WarmStart: xHint != nil,
		})
		pairsC.Inc()
		var sp *solvedPair
		mu.Lock()
		r.stats.PairsSolved++
		if err == nil {
			switch res.Status {
			case solver.Infeasible:
				r.stats.Infeasible++
				infeasC.Inc()
			case solver.Suboptimal:
				r.stats.Suboptimal++
				subC.Inc()
				fallthrough
			case solver.Optimal:
				r.stats.NewtonIters += res.Newton
				sp = &solvedPair{
					permL1: permL1, permSRAM: permSRAM,
					x: res.X, objective: res.Objective,
				}
				results[i] = sp
			}
		}
		mu.Unlock()
		if pairSpan != nil {
			if err == nil {
				pairSpan.Annotate(
					obs.String("status", res.Status.String()),
					obs.Int("newton", res.Newton),
					obs.Float("objective", res.Objective),
				)
			}
			pairSpan.End()
		}
		return sp, err
	}

	// The formulate stage lays out jobs as nGroups contiguous groups of
	// groupSize (one group per L1 class, one job per SRAM class).
	groupSize := len(r.classesSRAM)
	if groupSize == 0 || len(r.jobs) == 0 {
		return nil, nil
	}
	nGroups := len(r.jobs) / groupSize
	warm := !r.opts.DisableWarmStart
	prune := !r.opts.DisableBoundPruning

	// Phase A: cold-solve each group's first pair. Seeds are never
	// pruned, so the threshold below is derived from a fixed job set.
	err := r.sched.ForEach(ctx, nGroups, func(g int) error {
		ws := r.getWS()
		defer r.putWS(ws)
		_, err := solveJob(g*groupSize, ws, nil, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Prune threshold: with k = topClasses, only the k smallest
	// objectives and their ties within solverTol survive into
	// integerization, and the seeds already supply candidates at or
	// below their k-th smallest — any pair whose objective provably
	// exceeds bandLimit of it is skippable. Fewer than k feasible
	// seeds means no pruning (threshold +Inf), which also keeps the
	// capSlack retry exact: a pass with zero feasible solves never
	// pruned anything.
	var seedObjs []float64
	if prune {
		seedObjs = make([]float64, 0, nGroups)
		for g := 0; g < nGroups; g++ {
			if sp := results[g*groupSize]; sp != nil {
				seedObjs = append(seedObjs, sp.objective)
			}
		}
		sort.Float64s(seedObjs)
	}
	var bc *boundCtx
	if prune {
		bc = newBoundCtx(r.nest, r.av, r.varT)
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
			hint = seed.x
		}
		for idx := 1; idx < groupSize; idx++ {
			var bound func(*formulation) bool
			if prune {
				bound = func(f *formulation) bool {
					return prunable(bc.lowerBound(f.objective), threshold, solverTol)
				}
			}
			sp, err := solveJob(g*groupSize+idx, ws, hint, bound)
			if err != nil {
				return err
			}
			if sp == nil {
				continue
			}
			if warm {
				hint = sp.x
			}
			if prune {
				pos := sort.SearchFloat64s(known, sp.objective)
				known = append(known, 0)
				copy(known[pos+1:], known[pos:])
				known[pos] = sp.objective
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

	solved := make([]solvedPair, 0, len(results))
	for _, sp := range results {
		if sp != nil {
			solved = append(solved, *sp)
		}
	}
	return solved, nil
}

// coldHintFeasible reports whether the formulation's analytic hint lies
// strictly inside every inequality constraint (in the original positive
// variables; the solver re-checks after projecting onto the equality
// manifold either way, so this is a routing heuristic, not a proof).
func coldHintFeasible(f *formulation) bool {
	x := f.hint()
	for _, c := range f.prog.Ineq {
		if c.Eval(x) >= 1 {
			return false
		}
	}
	return true
}

package solver

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/linalg"
	"repro/internal/obs"
)

// Status classifies the outcome of a Solve call.
type Status int

const (
	// Optimal means the barrier method converged to the duality-gap
	// tolerance.
	Optimal Status = iota
	// Suboptimal means iteration limits were hit; the returned point is
	// feasible but the gap tolerance was not certified.
	Suboptimal
	// Infeasible means phase I could not find a strictly feasible point.
	Infeasible
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Suboptimal:
		return "suboptimal"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// ErrBadProblem reports a structurally invalid problem (dimension
// mismatches, inconsistent equalities).
var ErrBadProblem = errors.New("solver: invalid problem")

// Problem is a convex program in log-space (see package comment).
type Problem struct {
	N    int   // dimension of y
	Obj  LSE   // objective f0
	Ineq []LSE // constraints fi(y) ≤ 0
	// Optional equality constraints Aeq·y = Beq. Nil Aeq means none.
	Aeq *linalg.Dense
	Beq []float64
}

// Options tunes the interior-point method. Zero values select defaults.
type Options struct {
	// Tol is the target duality gap m/t. Default 1e-8.
	Tol float64
	// NewtonTol is the Newton-decrement^2/2 tolerance per centering step.
	// Default 1e-10.
	NewtonTol float64
	// Mu is the barrier parameter multiplier. Default 20.
	Mu float64
	// T0 is the initial barrier parameter. Default 1.
	T0 float64
	// MaxNewton bounds Newton iterations per centering step. Default 200.
	MaxNewton int
	// MaxCentering bounds outer barrier updates. Default 100.
	MaxCentering int
	// Box bounds every coordinate: |y_i| ≤ Box, added as constraints.
	// This keeps phase I bounded when the feasible set is unbounded.
	// Default 60 (generous for log-space trip counts); negative disables.
	Box float64
	// Obs receives solver telemetry: phase spans, Newton-iteration and
	// line-search-backtrack counters, and Trace-level stall diagnostics.
	// Nil disables all of it at the cost of a few nil checks.
	Obs *obs.Obs
	// Span, when tracing, parents this solve's phase spans (so each GP
	// solve nests under its caller's span). May be nil.
	Span *obs.Span
	// Workspace supplies reusable solve scratch and the equality-
	// elimination cache (see Workspace). Nil uses a fresh workspace per
	// call. Results are identical either way; reuse only changes
	// allocation behavior.
	Workspace *Workspace
	// WarmStart marks the hint as seeded from a neighboring solution.
	// It does not change the algorithm — the hint is honored either way —
	// only the telemetry: warm-started solves report warm_start and
	// phase1_skipped on solve_end events and count into the
	// solver.warmstart.hit / solver.warmstart.miss counters (hit means
	// the hint was already strictly feasible, so phase I was skipped).
	WarmStart bool
}

func (o Options) withDefaults() Options {
	if o.Tol == 0 {
		o.Tol = 1e-8
	}
	if o.NewtonTol == 0 {
		o.NewtonTol = 1e-10
	}
	if o.Mu == 0 {
		o.Mu = 20
	}
	if o.T0 == 0 {
		o.T0 = 1
	}
	if o.MaxNewton == 0 {
		o.MaxNewton = 200
	}
	if o.MaxCentering == 0 {
		o.MaxCentering = 100
	}
	if o.Box == 0 {
		o.Box = 60
	}
	return o
}

// Result reports the solution of a Solve call, including the
// convergence telemetry the warm-start work needs: how much of the
// budget went to feasibility search vs. path following, and how tight
// the final certificate is.
type Result struct {
	Y          []float64 // point in the original y space
	Objective  float64   // f0(Y)
	Status     Status
	Newton     int // total Newton iterations
	Centerings int
	// Gap is the final duality gap m/t of the barrier path (0 when the
	// problem had no inequality constraints or was fully determined).
	Gap float64
	// PhaseI reports whether the solve needed a phase-I feasibility
	// search; false means the starting point (origin or warm hint) was
	// already strictly feasible.
	PhaseI bool
}

// Solve minimizes the problem starting from the hint y0 (projected onto
// the equality manifold; pass nil for the origin). The returned point is
// strictly feasible unless Status == Infeasible.
func Solve(p *Problem, yHint []float64, opts Options) (Result, error) {
	opts = opts.withDefaults()
	o := opts.Obs
	span := o.StartSpan(opts.Span, "solve")
	opts.Span = span // parent for the phase spans
	var t0 time.Time
	hist := o.Histogram("solver.solve_duration")
	if hist != nil || o.EventsEnabled() {
		//tlvet:ignore wallclock -- telemetry: solve duration feeds the solver.solve_duration histogram and solve_end event only
		t0 = time.Now()
	}
	res, err := solve(p, yHint, opts)
	if hist != nil {
		//tlvet:ignore wallclock -- telemetry: solve duration feeds the solver.solve_duration histogram only
		hist.Observe(time.Since(t0))
	}
	if o.EventsEnabled() {
		o.Emit(obs.EvSolveEnd, map[string]any{
			"status":     res.Status.String(),
			"newton":     res.Newton,
			"centerings": res.Centerings,
			"objective":  res.Objective,
			"gap":        res.Gap,
			"phase1":     res.PhaseI,
			"warm_start": opts.WarmStart,
			"phase1_skipped": opts.WarmStart &&
				res.Status != Infeasible && !res.PhaseI,
			//tlvet:ignore wallclock -- telemetry: wall_us on solve_end events; never feeds solve results
			"wall_us": time.Since(t0).Microseconds(),
		})
	}
	o.Counter("solver.solves").Inc()
	o.Counter("solver.newton_iters").Add(int64(res.Newton))
	if res.Status == Infeasible {
		o.Counter("solver.infeasible").Inc()
	}
	if opts.WarmStart {
		if res.Status != Infeasible && !res.PhaseI {
			o.Counter("solver.warmstart.hit").Inc()
		} else {
			o.Counter("solver.warmstart.miss").Inc()
		}
	}
	if span != nil {
		span.Annotate(
			obs.Int("newton", res.Newton),
			obs.Int("centerings", res.Centerings),
			obs.String("status", res.Status.String()),
			obs.Float("gap", res.Gap),
			obs.Bool("phase1", res.PhaseI),
		)
		span.End()
	}
	return res, err
}

func solve(p *Problem, yHint []float64, opts Options) (Result, error) {
	if p.N <= 0 {
		return Result{}, fmt.Errorf("%w: N = %d", ErrBadProblem, p.N)
	}
	ws := opts.Workspace
	if ws == nil {
		ws = NewWorkspace()
	}

	// Eliminate equality constraints: y = yPart + Z·z (cached across
	// solves that share the same equality system and box bound).
	if p.Aeq != nil && p.Aeq.Rows > 0 && (p.Aeq.Cols != p.N || len(p.Beq) != p.Aeq.Rows) {
		return Result{}, fmt.Errorf("%w: equality dimensions", ErrBadProblem)
	}
	yPart, zBasis, box, elimErr := ws.eliminate(p, opts.Box)
	if elimErr != nil {
		return Result{Status: Infeasible}, nil
	}
	nz := zBasis.Cols

	// Compose all functions with the affine map, into the sparse form
	// the Newton loop evaluates: the objective is function 0 and the
	// constraints follow. Box constraints on the original coordinates
	// keep every subproblem (notably phase I) bounded; their composed
	// forms come from the elimination cache.
	fs := &ws.fns
	fs.reset(nz)
	row := growF(&ws.row, nz)
	fs.compose(&p.Obj, yPart, zBasis, row)
	for i := range p.Ineq {
		fs.compose(&p.Ineq[i], yPart, zBasis, row)
	}
	for f := 0; f < box.count(); f++ {
		fs.appendFn(box, f, -1)
	}

	recover := func(z []float64) []float64 {
		y := append([]float64(nil), yPart...)
		tmp := growF(&ws.recTmp, p.N)
		zBasis.MulVec(z, tmp)
		linalg.AXPY(1, tmp, y)
		return y
	}

	if nz == 0 {
		// Fully determined by equalities; just check feasibility.
		z := []float64{}
		if fs.maxIneq(z) >= 0 {
			return Result{Status: Infeasible}, nil
		}
		y := recover(z)
		return Result{Y: y, Objective: p.Obj.Value(y), Status: Optimal}, nil
	}

	// Initial z: project the hint onto the manifold coordinates.
	z := make([]float64, nz)
	if yHint != nil {
		ws.projectHint(yHint, yPart, zBasis, z)
	}

	totalNewton := 0
	usedPhaseI := false

	// Phase I if the initial point is not strictly feasible.
	if fs.maxIneq(z) > -1e-9 {
		usedPhaseI = true
		ph := opts.Obs.StartSpan(opts.Span, "phase-i")
		opts.Obs.Counter("solver.phase1_runs").Inc()
		var ok bool
		var n int
		z, ok, n = phaseI(ws, z, opts)
		totalNewton += n
		if ph != nil {
			ph.Annotate(obs.Int("newton", n), obs.Attr{Key: "feasible", Value: ok})
			ph.End()
		}
		if !ok {
			return Result{Status: Infeasible, Newton: totalNewton, PhaseI: true}, nil
		}
	}

	// Phase II: barrier path following.
	ph2 := opts.Obs.StartSpan(opts.Span, "phase-ii")
	ph2Newton := totalNewton
	m := fs.count() - 1
	t := opts.T0
	centerings := 0
	status := Optimal
	finalGap := 0.0
	emit := opts.Obs.EventsEnabled()
	if m == 0 {
		// Unconstrained: single Newton minimization of the objective.
		n, _, converged := newtonMinimize(ws, fs, 1, z, opts, nil)
		totalNewton += n
		if !converged {
			status = Suboptimal
		}
	} else {
		for centerings < opts.MaxCentering {
			n, bt, converged := newtonMinimize(ws, fs, t, z, opts, nil)
			totalNewton += n
			centerings++
			if !converged {
				status = Suboptimal
			}
			gap := float64(m) / t
			finalGap = gap
			if emit {
				opts.Obs.Emit(obs.EvCentering, map[string]any{
					"step":       centerings,
					"t":          t,
					"gap":        gap,
					"newton":     n,
					"backtracks": bt,
					"converged":  converged,
				})
			}
			if gap < opts.Tol {
				break
			}
			t *= opts.Mu
		}
		if float64(m)/t >= opts.Tol {
			status = Suboptimal
		}
	}
	if ph2 != nil {
		ph2.Annotate(obs.Int("newton", totalNewton-ph2Newton), obs.Int("centerings", centerings))
		ph2.End()
	}

	y := recover(z)
	return Result{
		Y:          y,
		Objective:  p.Obj.Value(y),
		Status:     status,
		Newton:     totalNewton,
		Centerings: centerings,
		Gap:        finalGap,
		PhaseI:     usedPhaseI,
	}, nil
}

// boxConstraints returns the 2n constraints |y_i| ≤ box.
func boxConstraints(n int, box float64) []LSE {
	out := make([]LSE, 0, 2*n)
	for i := 0; i < n; i++ {
		hi := make([]float64, n)
		hi[i] = 1
		out = append(out, Linear(hi, -box))
		lo := make([]float64, n)
		lo[i] = -1
		out = append(out, Linear(lo, -box))
	}
	return out
}

// projectHint solves min ||yPart + Z z − yHint||² for z. The Gram
// matrix ZᵀZ depends only on the nullspace basis, so it is cached with
// the equality elimination and rebuilt only when the basis changes.
func (ws *Workspace) projectHint(yHint, yPart []float64, zb *linalg.Dense, z []float64) {
	n, nz := zb.Rows, zb.Cols
	d := growF(&ws.hintD, n)
	for i := 0; i < n; i++ {
		d[i] = yHint[i] - yPart[i]
	}
	rhs := growF(&ws.hintRhs, nz)
	zb.MulTransVec(d, rhs)
	if !ws.ztzValid || ws.ztz == nil || ws.ztz.Rows != nz {
		ztz := growDense(&ws.ztz, nz, nz)
		for i := 0; i < nz; i++ {
			for j := 0; j < nz; j++ {
				s := 0.0
				for k := 0; k < n; k++ {
					s += zb.At(k, i) * zb.At(k, j)
				}
				ztz.Set(i, j, s)
			}
		}
		ws.ztzValid = true
	}
	sol := growF(&ws.hintSol, nz)
	if err := ws.Lin.SolveSPDTo(sol, ws.ztz, rhs); err == nil {
		copy(z, sol)
	}
}

// phaseI finds a strictly feasible point by minimizing s subject to
// fi(z) ≤ s over the extended variable (z, s), stopping as soon as
// s < 0 at a centered point. The constraints fi are functions
// 1..count()−1 of ws.fns. Returns the feasible z and success.
func phaseI(ws *Workspace, z0 []float64, opts Options) ([]float64, bool, int) {
	fs := &ws.fns
	nz := len(z0)
	dim := nz + 1
	// Objective: minimize s. Constraints: fi(z) − s ≤ 0, plus a floor
	// s ≥ −1 (−s − 1 ≤ 0) to keep the problem bounded.
	ext := &ws.ext
	ext.reset(dim)
	ext.add(nz, 1)
	ext.endTerm(0)
	ext.endFn()
	for f := 1; f < fs.count(); f++ {
		ext.appendFn(fs, f, nz)
	}
	ext.add(nz, -1)
	ext.endTerm(-1)
	ext.endFn()

	// Strictly feasible start: s = max fi(z0) + 1.
	x := growF(&ws.phX, dim)
	copy(x, z0)
	x[dim-1] = fs.maxIneq(z0) + 1

	total := 0
	t := opts.T0
	// Stop a centering step as soon as the slack is clearly negative and
	// the underlying point is strictly feasible.
	stop := func(x []float64) bool {
		return x[dim-1] < -1e-6 && fs.maxIneq(x[:nz]) <= 0
	}
	m := ext.count() - 1
	for c := 0; c < opts.MaxCentering; c++ {
		n, _, _ := newtonMinimize(ws, ext, t, x, opts, stop)
		total += n
		if x[dim-1] < -1e-7 {
			out := append([]float64(nil), x[:nz]...)
			if fs.maxIneq(out) <= 0 {
				return out, true, total
			}
		}
		if float64(m)/t < opts.Tol {
			break
		}
		t *= opts.Mu
	}
	out := append([]float64(nil), x[:nz]...)
	return out, fs.maxIneq(out) <= 0, total
}

// newtonMinimize minimizes t·f0(z) − Σ log(−fi(z)) over z in place,
// where f0 is function 0 of fs and the fi are the rest (none leaves the
// unconstrained t·f0). It returns the Newton iteration count, the
// line-search backtrack count, and whether the point is centered: the
// decrement tolerance was reached, or the remaining decrease is below
// float64 resolution.
//
// The Hessian is assembled in its lower triangle only, which is all
// that SolveSPDTo reads; its upper triangle holds stale values.
func newtonMinimize(ws *Workspace, fs *sparseLSEs, t float64, z []float64, opts Options, stop func([]float64) bool) (iters, bt int, converged bool) {
	n := len(z)
	log := opts.Obs.Logger()
	backtracks := opts.Obs.Counter("solver.linesearch_backtracks")
	g := growF(&ws.g, n)
	h := growDense(&ws.h, n, n)
	gTmp := growF(&ws.gTmp, n)
	hTmp := growDense(&ws.hTmp, n, n)

	eval := func(z []float64, needDeriv bool) (float64, bool) {
		if !needDeriv {
			val := t * fs.value(0, z)
			for f := 1; f < fs.count(); f++ {
				fi := fs.value(f, z)
				if fi >= 0 {
					return math.Inf(1), false
				}
				val -= math.Log(-fi)
			}
			return val, true
		}
		for i := range g {
			g[i] = 0
		}
		for r := 0; r < n; r++ {
			hr := h.Data[r*n : r*n+r+1]
			for c := range hr {
				hr[c] = 0
			}
		}
		val := t * fs.eval(0, z, g, h)
		linalg.Scale(t, g)
		for r := 0; r < n; r++ {
			linalg.Scale(t, h.Data[r*n:r*n+r+1])
		}
		for f := 1; f < fs.count(); f++ {
			k := fs.fn[f]
			affine := fs.fn[f+1]-k == 1
			var fi float64
			if affine {
				fi = fs.exponent(k, z) + 0
			} else {
				fi = fs.eval(f, z, gTmp, hTmp)
			}
			if fi >= 0 {
				if log.Enabled(obs.Trace) {
					log.Tracef("solver: constraint %d value %g at newton entry", f-1, fi)
				}
				return math.Inf(1), false
			}
			val -= math.Log(-fi)
			inv := -1.0 / fi // positive
			inv2 := inv * inv
			if affine {
				// The Hessian of an affine constraint (box walls, trip
				// lower bounds: the bulk of every GP here) is exactly
				// zero, leaving the rank-1 barrier curvature inv²·a·aᵀ.
				cols, vals := fs.entries(k)
				for e, r := range cols {
					g[r] += inv * vals[e]
					igr := inv2 * vals[e]
					hr := h.Data[r*n:]
					for e2, c := range cols[:e+1] {
						hr[c] += igr * vals[e2]
					}
				}
				continue
			}
			sup := fs.support(f)
			for _, c := range sup {
				g[c] += inv * gTmp[c]
			}
			for a, r := range sup {
				gr := gTmp[r]
				hr, tr := h.Data[r*n:], hTmp.Data[r*n:]
				for _, c := range sup[:a+1] {
					hr[c] += inv2*gr*gTmp[c] + inv*tr[c]
				}
			}
		}
		return val, true
	}

	zTrial := growF(&ws.zTrial, n)
	negG := growF(&ws.negG, n)
	dir := growF(&ws.dir, n)
	var val, lambda2 float64
	for it := 0; it < opts.MaxNewton; it++ {
		var ok bool
		val, ok = eval(z, true)
		if !ok {
			if log.Enabled(obs.Trace) {
				log.Tracef("solver: eval infeasible at start of newton iter %d (t=%g)", it, t)
			}
			return it, bt, false // should not happen from a feasible start
		}
		for i := range g {
			negG[i] = -g[i]
		}
		d := dir
		if err := ws.Lin.SolveSPDTo(d, h, negG); err != nil {
			// Fall back to steepest descent.
			d = negG
		}
		lambda2 = -linalg.Dot(g, d)
		if lambda2 <= 0 {
			// Not a descent direction (numerical trouble): use gradient.
			d = negG
			lambda2 = linalg.Dot(g, g)
		}
		if lambda2/2 <= opts.NewtonTol {
			return it + 1, bt, true
		}
		// The Armijo test at step 1 asks for a decrease of 0.25·λ². Once
		// that is below float64's resolution of val, the line search
		// compares values that differ only by rounding: the point is as
		// centered as this precision can tell, the same verdict a
		// stalled line search reaches after 60 halvings.
		if 0.25*lambda2 <= math.Abs(val)*0x1p-52 {
			return it + 1, bt, true
		}
		// Backtracking line search (Armijo, alpha=0.25, beta=0.5), with
		// implicit feasibility filtering via +Inf values.
		step := 1.0
		improved := false
		for ls := 0; ls < 60; ls++ {
			copy(zTrial, z)
			linalg.AXPY(step, d, zTrial)
			if tv, tok := eval(zTrial, false); tok && tv <= val-0.25*step*lambda2 {
				copy(z, zTrial)
				improved = true
				bt += ls
				backtracks.Add(int64(ls))
				break
			}
			step *= 0.5
		}
		if !improved {
			bt += 60
			backtracks.Add(60)
			// No progress possible at machine precision.
			if log.Enabled(obs.Trace) {
				log.Tracef("solver: line search stalled at iter %d t=%g val=%g lambda2=%g", it, t, val, lambda2)
			}
			return it + 1, bt, true
		}
		if stop != nil && stop(z) {
			return it + 1, bt, true
		}
	}
	if log.Enabled(obs.Trace) {
		log.Tracef("solver: newton budget of %d iterations exhausted t=%g lambda2/2=%g |val|=%g",
			opts.MaxNewton, t, lambda2/2, math.Abs(val))
	}
	return opts.MaxNewton, bt, false
}

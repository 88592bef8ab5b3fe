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
	// CutOff means phase II stopped early: a lower bound on the optimum,
	// certified at the point reached, exceeds log Options.Cutoff. The
	// returned point is strictly feasible but not optimal.
	CutOff
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Suboptimal:
		return "suboptimal"
	case Infeasible:
		return "infeasible"
	case CutOff:
		return "cutoff"
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

// The interior-point method's fixed settings.
const (
	// defaultTol is the target duality gap m/t when Options.Tol is 0.
	defaultTol = 1e-8
	// newtonTol is the Newton-decrement²/2 tolerance of a centering.
	newtonTol = 1e-10
	// mu multiplies t between centerings.
	mu = 20
	// maxNewton bounds the Newton iterations of one centering.
	maxNewton = 200
	// maxCentering bounds the outer barrier updates.
	maxCentering = 100
	// maxBacktracks bounds the halvings of one line search.
	maxBacktracks = 60
	// boxBound bounds every coordinate, |y_i| ≤ boxBound, added as
	// constraints: generous for log-space trip counts, and it keeps
	// phase I bounded when the feasible set is unbounded.
	boxBound = 60
	// cutoffMargin is subtracted from the certified lower bound, scaled
	// by the magnitudes it is summed from, before it is compared with
	// log Options.Cutoff: seven orders of magnitude above the rounding of
	// those sums.
	cutoffMargin = 1e-9
)

// Options tunes the interior-point method. Zero values select defaults.
type Options struct {
	// Tol is the target duality gap m/t. Default 1e-8.
	Tol float64
	// LowerBound is a lower bound on exp(f0) over the feasible set: on
	// the objective of the GP in its positive variables. Phase II starts
	// its barrier path at the duality gap this bound certifies at its
	// starting point z, t0 = m / (f0(z) − log LowerBound), clamped as
	// startT says. Zero means no bound and starts at t0 = 1, as does a
	// bound that is negative, NaN, +Inf or above f0(z).
	LowerBound float64
	// Cutoff, when positive and finite, is a value of exp(f0) that only
	// matters to the caller if the optimum can lie below it. Phase II
	// then stops with status CutOff as soon as a lower bound on the
	// optimum, valid at the point it reached (see dualBound), exceeds
	// log Cutoff. The check only reads the iterate, so a solve it never
	// stops is bit for bit the solve without it. Zero means none.
	Cutoff float64
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
	if opts.Tol == 0 {
		opts.Tol = defaultTol
	}
	o := opts.Obs
	span := o.StartSpan(opts.Span, "solve")
	opts.Span = span // parent for the phase spans
	var t0 time.Time
	if o.MetricsEnabled() || o.EventsEnabled() {
		//tlvet:ignore wallclock -- telemetry: solve duration feeds the solve_end record only
		t0 = time.Now()
	}
	res, err := solve(p, yHint, opts)
	if o != nil {
		end := obs.SolveEnd{
			Status:        res.Status.String(),
			Newton:        res.Newton,
			Centerings:    res.Centerings,
			Objective:     res.Objective,
			Gap:           res.Gap,
			Phase1:        res.PhaseI,
			WarmStart:     opts.WarmStart,
			Phase1Skipped: opts.WarmStart && res.Status != Infeasible && !res.PhaseI,
		}
		if !t0.IsZero() {
			//tlvet:ignore wallclock -- telemetry: wall_us of the solve_end record; never feeds solve results
			end.WallUS = time.Since(t0).Microseconds()
		}
		record(o, span, end)
	}
	span.End()
	return res, err
}

// record derives a solve's telemetry from its one record, end: the
// solve_end event, the solve span's attributes, the solver.solves,
// newton_iters, infeasible and warmstart.hit/miss counters, and the
// solver.solve_duration histogram.
func record(o *obs.Obs, span *obs.Span, end obs.SolveEnd) {
	if o.EventsEnabled() {
		ev := end // only an emitted record escapes to the heap
		o.Emit(&ev)
	}
	if span != nil {
		span.Annotate(end.Attrs()...)
	}
	if !o.MetricsEnabled() {
		return
	}
	o.Counter("solver.solves").Inc()
	o.Counter("solver.newton_iters").Add(int64(end.Newton))
	if end.Status == Infeasible.String() {
		o.Counter("solver.infeasible").Inc()
	}
	if end.WarmStart {
		// A warm start hits when it made phase I unnecessary.
		name := "solver.warmstart.miss"
		if end.Phase1Skipped {
			name = "solver.warmstart.hit"
		}
		o.Counter(name).Inc()
	}
	o.Histogram("solver.solve_duration").Observe(time.Duration(end.WallUS) * time.Microsecond)
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
	yPart, zBasis, elimErr := ws.lower(p)
	if elimErr != nil {
		return Result{Status: Infeasible}, nil
	}
	nz := zBasis.Cols
	fs := &ws.fns

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

	// Phase II: barrier path following. The box constraints make m at
	// least 2·N, so every solve has a barrier.
	ph2 := opts.Obs.StartSpan(opts.Span, "phase-ii")
	ph2Newton := totalNewton
	m := float64(fs.count() - 1)
	t := startT(m, fs.value(0, z), opts)
	logCut := math.Inf(1)
	if opts.Cutoff > 0 {
		logCut = math.Log(opts.Cutoff)
	}
	centerings := 0
	status := Optimal
	finalGap := 0.0
	emit := opts.Obs.EventsEnabled()
	for centerings < maxCentering {
		n, bt, converged := newtonMinimize(ws, fs, t, z, opts, nil)
		totalNewton += n
		centerings++
		if !converged {
			status = Suboptimal
		}
		gap := m / t
		finalGap = gap
		if emit {
			opts.Obs.Emit(&obs.Centering{
				Step:       centerings,
				T:          t,
				Gap:        gap,
				Newton:     n,
				Backtracks: bt,
				Converged:  converged,
			})
		}
		if gap < opts.Tol {
			break
		}
		// Only a converged centering leaves ws.g the gradient at z.
		if converged && ws.dualBound(fs, z, t, yPart, zBasis) > logCut {
			status = CutOff
			break
		}
		t *= mu
	}
	if status != CutOff && m/t >= opts.Tol {
		status = Suboptimal
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

// lower eliminates p's equality constraints, y = yPart + Z·z (cached
// across solves that share the same equality system and box bound), and
// composes every function with that affine map into ws.fns, the sparse
// form the Newton loop evaluates: the objective is function 0 and the
// constraints follow. Box constraints on the original coordinates keep
// every subproblem (notably phase I) bounded; their composed forms come
// from the elimination cache.
func (ws *Workspace) lower(p *Problem) (yPart []float64, zBasis *linalg.Dense, err error) {
	yPart, zBasis, box, err := ws.eliminate(p)
	if err != nil {
		return nil, nil, err
	}
	nz := zBasis.Cols
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
	return yPart, zBasis, nil
}

// startT returns phase II's initial barrier parameter: m over the
// duality gap that opts.LowerBound certifies at the starting point,
// f0 − log LowerBound, where f0 is the objective there (Boyd &
// Vandenberghe §11.3.1), clamped to [1, m/(√mu·Tol)].
//
// The upper end keeps the last centering starting from a central point.
// A start at m/Tol would center twice anyway, since m/t = Tol does not
// pass the strict stop: the first time from the uncentered start at the
// path's largest t, where the barrier value is largest and its rounding
// can outweigh the Newton decrement (2 of the 254 such solves of the
// fixed-delay sweep over the Table II layers wandered for a whole
// maxNewton budget there). From m/(√mu·Tol) the path also stops after
// two centerings, the second at gap Tol/√mu.
//
// The clamp also decides every degenerate bound: a gap of zero or below
// Tol starts at the upper end; a bound of zero (none), +Inf or above f0
// gives a gap of +Inf or below zero and starts at 1, as does a NaN gap.
func startT(m, f0 float64, opts Options) float64 {
	gap := f0 - math.Log(opts.LowerBound)
	if math.IsNaN(gap) {
		return 1
	}
	return max(1, min(m/gap, m/(math.Sqrt(mu)*opts.Tol)))
}

// dualBound returns a lower bound on the optimum of function 0 of fs
// subject to the others, which include the box |y| ≤ boxBound, at any
// strictly feasible z where ws.g holds the barrier gradient
// g = t·∇f0 − Σ ∇fi/fi of newtonMinimize, as after a converged
// centering. It needs no exact centrality, unlike f0 − m/t (Boyd &
// Vandenberghe §11.2.2).
//
// With λi = −1/(t·fi(z)) > 0 the Lagrangian L = f0 + Σ λi·fi is convex,
// equals f0(z) − m/t at z and has gradient g/t there. A feasible z' has
// every fi(z') ≤ 0, so f0(z') ≥ L(z') ≥ L(z) + gᵀ(z'−z)/t. Its point
// y' = yPart + Z·z' lies in the box, and with c = Z(ZᵀZ)⁻¹g,
// gᵀ(z'−z) = cᵀ(y'−y) ≥ −Σ |ci|·(boxBound + |yi|). The bound is
// lowered by cutoffMargin of the magnitudes it sums, for rounding.
func (ws *Workspace) dualBound(fs *sparseLSEs, z []float64, t float64, yPart []float64, zb *linalg.Dense) float64 {
	w := growF(&ws.cutW, zb.Cols)
	if ws.Lin.SolveSPDTo(w, ws.gram(zb), ws.g) != nil {
		return math.Inf(-1)
	}
	c := growF(&ws.cutC, zb.Rows)
	zb.MulVec(w, c)
	y := growF(&ws.recTmp, zb.Rows)
	zb.MulVec(z, y)
	slack := 0.0
	for i, ci := range c {
		slack += math.Abs(ci) * (boxBound + math.Abs(yPart[i]+y[i]))
	}
	f0 := fs.value(0, z)
	gap := float64(fs.count()-1) / t
	return f0 - gap - slack/t - cutoffMargin*(1+math.Abs(f0)+gap+slack/t)
}

// boxConstraints returns the 2n constraints |y_i| ≤ boxBound.
func boxConstraints(n int) []LSE {
	out := make([]LSE, 0, 2*n)
	for i := 0; i < n; i++ {
		hi := make([]float64, n)
		hi[i] = 1
		out = append(out, Linear(hi, -boxBound))
		lo := make([]float64, n)
		lo[i] = -1
		out = append(out, Linear(lo, -boxBound))
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
	sol := growF(&ws.hintSol, nz)
	if err := ws.Lin.SolveSPDTo(sol, ws.gram(zb), rhs); err == nil {
		copy(z, sol)
	}
}

// gram returns ZᵀZ for the nullspace basis zb. It depends only on the
// basis, so it is cached with the equality elimination.
func (ws *Workspace) gram(zb *linalg.Dense) *linalg.Dense {
	n, nz := zb.Rows, zb.Cols
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
	return ws.ztz
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

	// Start the path at m/s0: the slack's distance to the stopping
	// point s < 0 is the duality gap phase I has to close.
	m := float64(ext.count() - 1)
	t := max(1, m/x[dim-1])
	total := 0
	// Stop a centering step as soon as the slack is clearly negative and
	// the underlying point is strictly feasible.
	stop := func(x []float64) bool {
		return x[dim-1] < -1e-6 && fs.maxIneq(x[:nz]) <= 0
	}
	for c := 0; c < maxCentering; c++ {
		n, _, _ := newtonMinimize(ws, ext, t, x, opts, stop)
		total += n
		if x[dim-1] < -1e-7 {
			out := append([]float64(nil), x[:nz]...)
			if fs.maxIneq(out) <= 0 {
				return out, true, total
			}
		}
		if m/t < opts.Tol {
			break
		}
		t *= mu
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
			// Every constraint is tested before the first log: a trial
			// outside the domain costs no barrier terms.
			fis := growF(&ws.fi, fs.count())
			for f := 1; f < fs.count(); f++ {
				if fis[f] = fs.value(f, z); fis[f] >= 0 {
					return math.Inf(1), false
				}
			}
			val := t * fs.value(0, z)
			for _, fi := range fis[1:] {
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
	for it := 0; it < maxNewton; it++ {
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
		if lambda2/2 <= newtonTol {
			return it + 1, bt, true
		}
		// Backtracking line search (Armijo, alpha=0.25, beta=0.5), with
		// implicit feasibility filtering via +Inf values. The Armijo test
		// at a step asks for a decrease of 0.25·step·λ². Once that is
		// below float64's resolution of val, val minus it rounds to val,
		// and the test compares values that differ only by rounding: a
		// trial that changes nothing passes. The point is then as
		// centered as this precision can tell, at the first step or after
		// halvings, the same verdict a line search that fails
		// maxBacktracks times reaches.
		step := 1.0
		for ls := 0; ; ls++ {
			if ls == maxBacktracks || 0.25*step*lambda2 <= math.Abs(val)*0x1p-52 {
				bt += ls
				backtracks.Add(int64(ls))
				if ls == maxBacktracks && log.Enabled(obs.Trace) {
					log.Tracef("solver: line search stalled at iter %d t=%g val=%g lambda2=%g", it, t, val, lambda2)
				}
				return it + 1, bt, true
			}
			copy(zTrial, z)
			linalg.AXPY(step, d, zTrial)
			if tv, tok := eval(zTrial, false); tok && tv <= val-0.25*step*lambda2 {
				copy(z, zTrial)
				bt += ls
				backtracks.Add(int64(ls))
				break
			}
			step *= 0.5
		}
		if stop != nil && stop(z) {
			return it + 1, bt, true
		}
	}
	if log.Enabled(obs.Trace) {
		log.Tracef("solver: newton budget of %d iterations exhausted t=%g lambda2/2=%g |val|=%g",
			maxNewton, t, lambda2/2, math.Abs(val))
	}
	return maxNewton, bt, false
}

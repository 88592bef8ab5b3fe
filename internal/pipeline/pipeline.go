// Package pipeline implements the Thistle optimization flow as a
// sequence of explicit stages sharing a per-run context:
//
//	Enumerate → Formulate → Solve → Integerize → Validate → Select
//
// Enumerate produces the pruned tile-loop permutation classes at every
// copy level; Formulate runs Algorithm 1 once per class index and makes
// one job per class tuple (one class at each copy level) over the
// shared geometric-program variable set; Solve runs the interior-point
// backend over the jobs (with a capacity-slack retry pass when every
// strict GP is infeasible); Integerize converts the best relaxed
// solutions to integer mappings via divisor-ladder candidate
// generation; Validate re-checks the surviving candidates against the
// analytical model; and Select picks the winner with a deterministic,
// scheduling-independent tie-break.
//
// Every stage runs at any depth: the nest has one copy level per
// buffer of the architecture (the registers, its intermediate buffers
// arch.Arch.Mid, and the SRAM), and the paper's three-level memory is
// its depth-2 case.
//
// Leaf compute — GP solves and integerization searches — is admitted
// through a single bounded Scheduler shared by every placement (and,
// when the caller attaches one to the context, every layer of a batch
// run), so concurrency is capped once instead of per call site.
// Orchestration goroutines never hold scheduler tokens.
//
// The package is the engine behind the public core.Optimize facade; it
// keeps the facade's observability contract, emitting the historical
// span names ("rs-placement", "enumerate-classes", "gp-solve-pass",
// "gp-pair", "formulate", "integerize", "model-eval") and "core.*"
// metric names, plus a per-stage duration histogram
// "pipeline.stage.<name>".
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/solver"
)

// Run is the per-run context shared by the stages of one optimization
// pass (one problem, one RS placement). Stages communicate exclusively
// through it: each stage reads what its predecessors produced and adds
// its own products, so the executor can instrument every boundary
// uniformly.
type Run struct {
	ctx   context.Context
	prob  *loopnest.Problem
	opts  Options // defaults applied
	rs    dataflow.RSPlacement
	obs   *obs.Obs
	sched *Scheduler
	// parent is the enclosing placement span; stage spans hang off it.
	parent *obs.Span

	// Built by the executor before the first stage.
	nest *dataflow.Nest
	form *formulation // the class search's cost model
	av   *archVars    // the architecture of form, for Integerize

	// Stage products, in pipeline order.
	copyLevels []int                  // Enumerate: the nest's copy levels, inner to outer
	classes    [][]dataflow.PermClass // Enumerate: per copy level
	vols       *classVolumes          // Formulate
	jobs       int                    // Formulate: the number of class tuples (see job)
	solved     []Solved               // Solve (the tie band, in class-key order)
	ev         *model.Evaluator       // Integerize; Validate re-evaluates through its cached tables
	cands      []*integerized         // Integerize, filtered by Validate
	best       *DesignPoint           // Select

	// Solver-workspace pool for the solve stage: every tuple GP of a run
	// shares one equality system, so a recycled workspace almost always
	// hits its equality-elimination cache. Sized implicitly by the
	// scheduler width (a workspace is only out of the pool while a job
	// holds it).
	wsMu   sync.Mutex
	wsFree []*solver.Workspace

	stats Stats
}

// getWS takes a solver workspace from the run's pool (or makes one).
func (r *Run) getWS() *solver.Workspace {
	r.wsMu.Lock()
	defer r.wsMu.Unlock()
	if n := len(r.wsFree); n > 0 {
		ws := r.wsFree[n-1]
		r.wsFree = r.wsFree[:n-1]
		return ws
	}
	return solver.NewWorkspace()
}

// putWS returns a workspace to the pool for the next job.
func (r *Run) putWS(ws *solver.Workspace) {
	r.wsMu.Lock()
	r.wsFree = append(r.wsFree, ws)
	r.wsMu.Unlock()
}

// job returns the class tuple of job i — one class per copy level — as
// its permutation at every level of the nest (nil at the levels that
// are not copy levels) and its per-boundary relaxed traffic. Jobs are
// laid out lexicographically, the inner copy level most significant,
// so the jobs that share every class but the outermost level's are
// contiguous.
func (r *Run) job(i int) (perms [][]int, traffic []expr.Poly) {
	perms = make([][]int, len(r.nest.Levels))
	traffic = make([]expr.Poly, len(r.classes))
	for b := len(r.classes) - 1; b >= 0; b-- {
		k := i % len(r.classes[b])
		i /= len(r.classes[b])
		perms[r.copyLevels[b]] = r.classes[b][k].Perm
		traffic[b] = r.vols.traffic[b][k]
	}
	return perms, traffic
}

// integerized is one tuple's best integer design, in band order.
type integerized struct {
	pair Solved
	cand *candidate
	rep  *model.Report
}

// stage is one step of the optimization pipeline. Stages are executed
// in order against a shared *Run; a stage returning an error aborts the
// run (ErrNoDesign-wrapped errors still surface the accumulated Stats).
type stage interface {
	// Name is the stage's identifier, used for the per-stage duration
	// histogram ("pipeline.stage.<name>") and debug logs.
	Name() string
	Run(*Run) error
}

// stages is the standard stage sequence of one optimization pass.
var stages = []stage{
	enumerateStage{},
	formulateStage{},
	solveStage{},
	integerizeStage{},
	validateStage{},
	selectStage{},
}

// Execute runs the full flow for one problem: one staged pass per RS
// placement (the register tile, plus the level-1 loops when the problem
// has untiled kernel loops: layers with tiny register budgets are only
// feasible with the latter), all placements in flight concurrently and
// drawing leaf work from one scheduler, keeping the best design and
// accumulating search-effort stats across placements. Selection is
// deterministic and scheduling-independent: placements are merged in
// that order and candidate ties are broken by permutation
// order, so the same inputs produce byte-identical results at any
// scheduler width.
func Execute(ctx context.Context, p *loopnest.Problem, opts Options) (*Result, error) {
	opts = opts.WithDefaults()
	if opts.Mode == CoDesign && len(opts.Arch.Mid) > 0 {
		return nil, fmt.Errorf("%w: the architecture has %d intermediate buffers", ErrDeepCoDesign, len(opts.Arch.Mid))
	}
	o := obs.FromContext(ctx)
	sched := SchedulerFromContext(ctx)
	if sched == nil {
		sched = NewScheduler(opts.Parallel)
		ctx = ContextWithScheduler(ctx, sched)
	}
	placements := []dataflow.RSPlacement{dataflow.RSAtRegister}
	if hasUntiledKernelLoops(p) {
		placements = append(placements, dataflow.RSAtLevel1)
	}
	if o.Enabled(obs.Info) {
		o.Logf(obs.Info, "optimize %s: criterion=%v mode=%v placements=%d",
			p.Name, opts.Criterion, opts.Mode, len(placements))
	}
	// Placement passes are orchestration: they run as plain goroutines
	// (no scheduler tokens) and compete only through the leaf jobs they
	// submit. Results are merged in placement order below, so the
	// concurrency here cannot change the selected design.
	type placementOut struct {
		res *Result
		err error
	}
	outs := make([]placementOut, len(placements))
	var wg sync.WaitGroup
	for i, rs := range placements {
		wg.Add(1)
		go func(i int, rs dataflow.RSPlacement) {
			defer wg.Done()
			pctx, pspan := obs.StartSpan(ctx, "rs-placement", obs.String("rs", rs.String()))
			res, err := executeOne(pctx, p, opts, rs, sched)
			pspan.End()
			outs[i] = placementOut{res, err}
		}(i, rs)
	}
	wg.Wait()

	var best *Result
	var combined Stats
	var firstErr error
	for i, out := range outs {
		if out.res != nil {
			// Accumulate search effort across placements — including
			// placements that found no design but still solved GPs —
			// instead of overwriting with the best placement's counts.
			combined.add(out.res.Stats)
		}
		if out.err != nil {
			if o.Enabled(obs.Debug) {
				o.Logf(obs.Debug, "optimize %s: placement %v failed: %v", p.Name, placements[i], out.err)
			}
			if firstErr == nil {
				firstErr = out.err
			}
			continue
		}
		if best == nil || model.Score(opts.Criterion, out.res.Best.Report) < model.Score(opts.Criterion, best.Best.Report) {
			best = out.res
		}
	}
	if best == nil {
		return nil, firstErr
	}
	combined.FreshSolves = combined.PairsSolved
	best.Stats = combined
	if o.Enabled(obs.Info) {
		o.Logf(obs.Info, "optimize %s: done, %d GPs solved (%d newton iters), %d integer candidates",
			p.Name, combined.PairsSolved, combined.NewtonIters, combined.Candidates)
	}
	return best, nil
}

// executeOne runs the staged pipeline for one RS placement, under the
// placement span that ctx carries, and derives the placement's
// telemetry from its Stats when the stages end, on success or error.
func executeOne(ctx context.Context, p *loopnest.Problem, opts Options, rs dataflow.RSPlacement, sched *Scheduler) (*Result, error) {
	r, err := newRun(ctx, p, opts, rs, sched)
	if err != nil {
		return nil, err
	}
	err = r.runStages(stages)
	r.stats.observe(r.obs, r.parent)
	if err != nil {
		if errors.Is(err, ErrNoDesign) {
			// The search effort behind a no-design outcome still
			// counts toward the cross-placement totals.
			return &Result{Stats: r.stats}, err
		}
		return nil, err
	}
	return &Result{Best: r.best, Stats: r.stats}, nil
}

// runStages runs sts in order, each under its own span and duration
// histogram, stopping at the first error.
func (r *Run) runStages(sts []stage) error {
	o := r.obs
	for _, st := range sts {
		//tlvet:ignore wallclock -- telemetry: stage duration feeds the pipeline.stage.* histogram only
		start := time.Now()
		// Each stage runs under its own "stage:<name>" span: spans the
		// stage opens (and the scheduler's sched-wait children, which
		// follow the context's current span) nest beneath it. Stages run
		// sequentially on this goroutine, so the swap is safe.
		stageSpan := o.StartSpan(r.parent, "stage:"+st.Name())
		var prevParent *obs.Span
		var prevCtx context.Context
		if stageSpan != nil {
			prevParent, prevCtx = r.parent, r.ctx
			r.parent = stageSpan
			r.ctx = obs.ContextWithSpan(r.ctx, stageSpan)
		}
		err := st.Run(r)
		if stageSpan != nil {
			r.parent, r.ctx = prevParent, prevCtx
			stageSpan.End()
		}
		if o.MetricsEnabled() {
			//tlvet:ignore wallclock -- telemetry: stage duration feeds the pipeline.stage.* histogram only
			o.Histogram("pipeline.stage." + st.Name()).Observe(time.Since(start))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// BuildNest builds the nest of problem p on architecture a: one copy
// level per buffer, the PE grid above the last per-PE one, and the
// kernel loops placed by rs. On the paper's three-level memory it is
// dataflow.StandardNest.
func BuildNest(p *loopnest.Problem, a *arch.Arch, rs dataflow.RSPlacement) (*dataflow.Nest, error) {
	return dataflow.BuildNest(p, 2+len(a.Mid), a.SpatialAfter(), rs)
}

// newRun builds the per-run context of one RS placement: the
// architecture's nest and its formulation over the architecture
// variables and the delay variable.
func newRun(ctx context.Context, p *loopnest.Problem, opts Options, rs dataflow.RSPlacement, sched *Scheduler) (*Run, error) {
	if err := opts.Arch.Validate(); err != nil {
		return nil, err
	}
	nest, err := BuildNest(p, opts.Arch, rs)
	if err != nil {
		return nil, err
	}
	// Architecture variables (registered on the shared VarSet so they can
	// appear in the same GP as the trip counts), and the delay variable.
	// The fixed architecture owns its buffer list: the design points
	// keep it.
	av := &archVars{mode: opts.Mode, tech: opts.Arch.Tech, fixed: *opts.Arch, budget: opts.AreaBudget}
	av.fixed.Mid = slices.Clone(opts.Arch.Mid)
	if opts.Mode == CoDesign {
		av.varR = nest.Vars.NewVar("arch_R")
		av.varS = nest.Vars.NewVar("arch_S")
		av.varP = nest.Vars.NewVar("arch_P")
	}
	varT := nest.Vars.NewVar("delay_T")

	return &Run{
		ctx:    ctx,
		prob:   p,
		opts:   opts,
		rs:     rs,
		obs:    obs.FromContext(ctx),
		sched:  sched,
		parent: obs.SpanFromContext(ctx),
		nest:   nest,
		form: &formulation{
			nest: nest, av: av, crit: opts.Criterion, varT: varT,
			ops: float64(p.Ops()),
		},
		av: av,
	}, nil
}

// hasUntiledKernelLoops reports whether the problem has kernel iterators
// (named r/s) with extent > 1, i.e. whether the two RS placements differ.
func hasUntiledKernelLoops(p *loopnest.Problem) bool {
	for _, name := range []string{"r", "s"} {
		if i := p.IterIndex(name); i >= 0 && p.Iters[i].Extent > 1 {
			return true
		}
	}
	return false
}

// enumerateStage produces the permutation classes of every copy level.
type enumerateStage struct{}

func (enumerateStage) Name() string { return "enumerate" }

func (enumerateStage) Run(r *Run) error {
	o := r.obs
	enumSpan := o.StartSpan(r.parent, "enumerate-classes")
	defer enumSpan.End()
	var syms []dataflow.Involution
	if !r.opts.DisablePruning {
		syms = dataflow.SymmetricInvolutions(r.prob)
	}
	copyLevels := r.nest.CopyLevels()
	classes := make([][]dataflow.PermClass, len(copyLevels))
	counts := make([]int, len(copyLevels))
	for b, li := range copyLevels {
		cs, err := enumerate(r.nest, li, syms, r.opts.DisablePruning)
		if err != nil {
			return err
		}
		classes[b], counts[b] = cs, len(cs)
	}
	if o.Enabled(obs.Debug) {
		dims := make([]string, len(counts))
		for b, n := range counts {
			dims[b] = strconv.Itoa(n)
		}
		o.Logf(obs.Debug, "optimize %s: placement %v: %s permutation classes",
			r.prob.Name, r.rs, strings.Join(dims, " x "))
	}
	r.copyLevels, r.classes = copyLevels, classes
	// Stats names the innermost copy level L1 and the outermost SRAM,
	// as in the standard nest.
	last := len(counts) - 1
	r.stats.ClassesL1, r.stats.ClassesSRAM = counts[0], counts[last]
	if last > 1 {
		mid := counts[1:last]
		r.stats.ClassesMid = &mid
	}
	return nil
}

// enumerate returns permutation classes, or every raw permutation when
// pruning is disabled (ablation mode).
func enumerate(nest *dataflow.Nest, level int, syms []dataflow.Involution, raw bool) ([]dataflow.PermClass, error) {
	if !raw {
		return nest.EnumerateClasses(level, syms)
	}
	// Raw mode: every permutation of the active set becomes its own
	// "class".
	lvl := nest.Levels[level]
	var out []dataflow.PermClass
	dataflow.Permute(append([]int(nil), lvl.Active...), func(p []int) {
		out = append(out, dataflow.PermClass{Perm: append([]int(nil), p...), Size: 1})
	})
	return out, nil
}

// formulateStage runs Algorithm 1 once per class index (see
// classVolumes) and counts the class tuples, the GP jobs. Each tuple's
// program stays lazy — its solve job assembles the objective from the
// per-class polynomials and builds (and discards) the program right
// before solving, keeping peak memory proportional to the scheduler
// width rather than the job count.
type formulateStage struct{}

func (formulateStage) Name() string { return "formulate" }

func (formulateStage) Run(r *Run) error {
	vols, err := newClassVolumes(r.nest, r.classes)
	if err != nil {
		return err
	}
	r.vols = vols
	r.jobs = 1
	for _, cs := range r.classes {
		r.jobs *= len(cs)
	}
	return nil
}

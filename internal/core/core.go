// Package core implements the Thistle optimizer of the paper: for a
// loop-nest problem it enumerates pruned tile-loop permutation classes,
// generates one constrained geometric program per class combination
// (dataflow-only for a fixed architecture, or architecture-dataflow
// co-design under an area budget), solves them with the interior-point
// backend, converts the real solutions to integer mappings via
// divisor-ladder candidate generation, evaluates the candidates with the
// Timeloop-substitute model, and returns the best design point.
//
// The staged flow itself lives in internal/pipeline (Enumerate →
// Formulate → Solve → Integerize → Validate → Select, sharing one
// bounded scheduler); this package is the stable facade that layers
// result caching and the run-event stream on top of it. The optimizer's
// option, result, and error types are aliases of the pipeline's, so the
// two packages' values interchange freely.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// ErrNoDesign is returned when no feasible design point was found.
var ErrNoDesign = pipeline.ErrNoDesign

// Mode selects between dataflow-only optimization on a fixed architecture
// and full architecture-dataflow co-design.
type Mode = pipeline.Mode

const (
	// FixedArch optimizes the dataflow for a given architecture (the
	// paper's Figs. 4 and 7 setting).
	FixedArch = pipeline.FixedArch
	// CoDesign additionally optimizes P, R, and S under an area budget
	// (Figs. 5, 6, and 8).
	CoDesign = pipeline.CoDesign
)

// Options configures an Optimize run. Zero values select defaults.
type Options = pipeline.Options

// DesignPoint is one complete optimized design.
type DesignPoint = pipeline.DesignPoint

// Stats summarizes the search effort behind a Result.
type Stats = pipeline.Stats

// Result is the outcome of an Optimize run.
type Result = pipeline.Result

// Optimize runs the Thistle flow for one problem, trying each configured
// placement of the untiled kernel loops and returning the best design.
func Optimize(p *loopnest.Problem, opts Options) (*Result, error) {
	return OptimizeContext(context.Background(), p, opts)
}

// OptimizeContext is Optimize with telemetry and caching: when ctx
// carries an obs bundle (obs.NewContext), the run records a span tree
// (per RS placement, per permutation-pair GP solve with its formulate
// and phase-I/II children, integerization and model evaluation), search
// counters, leveled progress logs, and an optimize_start/optimize_end
// event pair. A bare context makes every hook a nil no-op. When a
// SolveCache is configured (Options.Cache or ContextWithCache), the run
// is memoized by content signature and a repeated request
// short-circuits before class enumeration and GP formulation; see
// SolveSignature for what the signature covers.
//
// The search itself is delegated to pipeline.Execute. A scheduler
// attached to ctx (pipeline.ContextWithScheduler) bounds this call's
// leaf compute jointly with every other optimization sharing it;
// otherwise the run gets its own bound of Options.Parallel.
func OptimizeContext(ctx context.Context, p *loopnest.Problem, opts Options) (*Result, error) {
	opts = opts.WithDefaults()
	o := obs.FromContext(ctx)
	if !o.EventsEnabled() {
		return optimize(ctx, p, opts, cache.Signature{})
	}
	sig := solveKey(p, opts).Signature()
	//tlvet:ignore wallclock -- telemetry: wall_us on optimize events; never feeds solve results
	t0 := time.Now()
	o.Emit(obs.EvOptimizeStart, startFields(p, opts, sig))
	res, err := optimize(ctx, p, opts, sig)
	//tlvet:ignore wallclock -- telemetry: wall_us on optimize events; never feeds solve results
	o.Emit(obs.EvOptimizeEnd, endFields(p.Name, sig, res, err, time.Since(t0), ""))
	return res, err
}

// OptimizeLayers runs the Thistle flow for every problem with shared
// options, deduplicating across problems: problems that share a solve
// signature (same shape, same options — see SolveSignature) are
// grouped, each group is solved exactly once, and the group's result is
// fanned back out to every member. Groups are solved concurrently, but
// total leaf compute stays bounded: every group draws from one pipeline
// scheduler — the one already on ctx (pipeline.ContextWithScheduler) or
// a fresh one sized by opts.Parallel — so submitting N problems never
// multiplies the configured concurrency by N.
//
// The run events come out in input order whatever order the groups
// finish in: layers_total and each group's optimize_start as the groups
// launch, then, once all are done, one optimize_end per problem. A
// group owner (the first problem in input order with its signature)
// gets its row whether it succeeded or not; every other member gets a
// row marked reused, naming the owner in "from", only when the whole
// batch succeeded.
//
// The returned slice is index-aligned with probs; deduplicated entries
// share one *Result (treat them as immutable). A solve cache on the
// context additionally memoizes groups across separate OptimizeLayers
// calls and process restarts. The dedup count is recorded on the obs
// counter "core.layers_deduped". On failure, the first solve error in
// input order is returned (cancellation of the siblings is reported
// only when no group failed on its own).
func OptimizeLayers(ctx context.Context, probs []*loopnest.Problem, opts Options) ([]*Result, error) {
	opts = opts.WithDefaults()
	o := obs.FromContext(ctx)
	emit := o.EventsEnabled()
	if emit {
		o.Emit(obs.EvLayersTotal, map[string]any{"total": len(probs)})
	}
	// Group by signature before solving anything, in input order.
	sigs := make([]cache.Signature, len(probs))
	owner := make([]int, len(probs))
	first := make(map[cache.Signature]int, len(probs))
	for i, p := range probs {
		sigs[i] = solveKey(p, opts).Signature()
		j, ok := first[sigs[i]]
		if !ok {
			j = i
			first[sigs[i]] = i
		}
		owner[i] = j
	}
	// One shared admission bound for every group's leaf compute.
	if pipeline.SchedulerFromContext(ctx) == nil {
		ctx = pipeline.ContextWithScheduler(ctx, pipeline.NewScheduler(opts.Parallel))
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Solve each group concurrently. The goroutines are orchestration —
	// they hold no scheduler tokens; the GP solves and integerization
	// searches they trigger do.
	results := make([]*Result, len(probs))
	errs := make([]error, len(probs))
	walls := make([]time.Duration, len(probs))
	var wg sync.WaitGroup
	for i, p := range probs {
		if owner[i] != i {
			continue
		}
		if emit {
			o.Emit(obs.EvOptimizeStart, startFields(p, opts, sigs[i]))
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			//tlvet:ignore wallclock -- telemetry: wall_us on optimize events; never feeds solve results
			t0 := time.Now()
			results[i], errs[i] = optimize(cctx, probs[i], opts, sigs[i])
			//tlvet:ignore wallclock -- telemetry: wall_us on optimize events; never feeds solve results
			walls[i] = time.Since(t0)
			if errs[i] != nil {
				cancel() // stop admitting the other groups' leaf jobs
			}
		}(i)
	}
	wg.Wait()
	// Deterministic error: the first real failure in input order beats
	// the cancellations it caused in sibling groups.
	var firstErr error
	for i, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("%s: %w", probs[i].Name, err)
		if !errors.Is(err, context.Canceled) {
			firstErr = wrapped
			break
		}
		if firstErr == nil {
			firstErr = wrapped
		}
	}
	deduped := 0
	for i, p := range probs {
		j := owner[i]
		if j != i {
			results[i] = results[j]
			deduped++
		}
		switch {
		case !emit:
		case j == i:
			o.Emit(obs.EvOptimizeEnd, endFields(p.Name, sigs[i], results[i], errs[i], walls[i], ""))
		case firstErr == nil:
			o.Emit(obs.EvOptimizeEnd, endFields(p.Name, sigs[i], results[i], nil, 0, probs[j].Name))
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if deduped > 0 {
		o.Counter("core.layers_deduped").Add(int64(deduped))
		if o.Enabled(obs.Info) {
			o.Logf(obs.Info, "dedup: %d of %d layers shared a solve signature", deduped, len(probs))
		}
	}
	return results, nil
}

// startFields builds the optimize_start payload.
func startFields(p *loopnest.Problem, opts Options, sig cache.Signature) map[string]any {
	return map[string]any{
		"problem":   p.Name,
		"sig":       sig.Short(),
		"mode":      opts.Mode.String(),
		"criterion": opts.Criterion.String(),
	}
}

// endFields builds every optimize_end payload: the row the manifest
// recorder folds into its per-layer table (see events.Schema). A failed
// run carries its error; a successful one its design's figures and
// search effort. A nonempty from marks a batch member served by its
// group owner's solve: the row repeats the owner's design figures,
// flagged reused, without effort or wall time of its own.
func endFields(name string, sig cache.Signature, res *Result, err error, wall time.Duration, from string) map[string]any {
	f := map[string]any{"problem": name, "sig": sig.Short()}
	if from == "" {
		f["wall_us"] = wall.Microseconds()
	}
	if err != nil || res == nil || res.Best == nil {
		f["status"] = "error"
		if err != nil {
			f["error"] = err.Error()
		}
		return f
	}
	rep := res.Best.Report
	f["status"] = "ok"
	f["energy_pj"] = rep.Energy
	f["cycles"] = rep.Cycles
	f["edp"] = rep.Energy * rep.Cycles
	f["energy_per_mac"] = rep.EnergyPerMAC
	f["ipc"] = rep.IPC
	if from != "" {
		f["reused"] = true
		f["from"] = from
		return f
	}
	f["pairs_solved"] = res.Stats.PairsSolved
	f["fresh_solves"] = res.Stats.FreshSolves
	f["candidates"] = res.Stats.Candidates
	f["from_cache"] = res.Stats.FromCache
	return f
}

// optimize is the cached, traced solve behind OptimizeContext and
// OptimizeLayers; it emits no run events. opts must already have
// defaults applied. sig must be solveKey(p, opts).Signature(), or zero
// when the caller has none; a zero sig is computed here only if a cache
// needs it. Either way the signature is recorded on the returned
// Result, so each distinct problem is hashed once per request.
func optimize(ctx context.Context, p *loopnest.Problem, opts Options, sig cache.Signature) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "optimize",
		obs.String("problem", p.Name), obs.String("mode", opts.Mode.String()))
	defer span.End()
	solve := func() (*Result, error) {
		res, err := pipeline.Execute(ctx, p, opts)
		if res != nil {
			res.Signature = sig
		}
		return res, err
	}
	sc := opts.Cache
	if sc == nil {
		sc = CacheFromContext(ctx)
	}
	if sc == nil {
		return solve()
	}
	if sig == (cache.Signature{}) {
		sig = solveKey(p, opts).Signature()
	}
	span.Annotate(obs.String("cache_sig", sig.Short()))
	res, hit, err := sc.Do(sig, solve)
	if err != nil {
		return nil, err
	}
	if !hit {
		span.SetAttr("cache", "miss")
		return res, nil
	}
	span.SetAttr("cache", "hit")
	if o := obs.FromContext(ctx); o.Enabled(obs.Info) {
		o.Logf(obs.Info, "optimize %s: served from cache (sig %s, %d GPs reused)",
			p.Name, sig.Short(), res.Stats.PairsSolved)
	}
	// Hand back a copy of the Result shell so the caller sees this
	// invocation's effort (zero fresh solves) without mutating the
	// cached entry; the design point itself is shared and immutable.
	out := *res
	out.Stats.FreshSolves = 0
	out.Stats.FromCache = true
	out.Signature = sig // a disk-tier record does not carry it
	return &out, nil
}

// EvaluateOn re-evaluates a design point's mapping on a different
// architecture (used by the single-architecture-for-all-layers
// experiments, where a layer's mapping must be re-optimized for a fixed
// architecture chosen from another layer). The nest is rebuilt from the
// design point's recorded options.
func EvaluateOn(p *loopnest.Problem, a *arch.Arch, dp *DesignPoint) (*model.Report, error) {
	nest, err := dataflow.StandardNest(p, dp.NestOptions)
	if err != nil {
		return nil, err
	}
	ev := model.NewEvaluator(nest)
	return ev.Evaluate(a, dp.Mapping)
}

// NestFor rebuilds the nest a design point's mapping refers to (for spec
// export or inspection).
func NestFor(p *loopnest.Problem, dp *DesignPoint) (*dataflow.Nest, error) {
	return dataflow.StandardNest(p, dp.NestOptions)
}

// SolveCache memoizes complete Optimize results keyed by content
// signature. Share one across layers, experiments, and runs (via the
// persistent tier) to deduplicate repeated solves: CNNs reuse a handful
// of layer shapes, so whole-network sweeps hit the cache heavily.
type SolveCache = cache.Cache[*Result]

// NewSolveCache builds a solve cache; see cache.Options for the
// capacity, persistence, and telemetry knobs.
func NewSolveCache(opts cache.Options) *SolveCache {
	if opts.Component == "" {
		opts.Component = "optimize"
	}
	return cache.New[*Result](opts)
}

type cacheCtxKey struct{}

// ContextWithCache attaches a solve cache to the context, where
// OptimizeContext finds it when Options.Cache is nil. A nil cache
// returns the context unchanged.
func ContextWithCache(ctx context.Context, c *SolveCache) context.Context {
	if c == nil {
		return ctx
	}
	return context.WithValue(ctx, cacheCtxKey{}, c)
}

// CacheFromContext returns the attached solve cache, or nil.
func CacheFromContext(ctx context.Context) *SolveCache {
	c, _ := ctx.Value(cacheCtxKey{}).(*SolveCache)
	return c
}

// SolveSignature returns the content signature OptimizeContext memoizes
// under: a stable hash of the canonicalized problem (shape and kernel
// roles, not names), the architecture's configuration and technology
// constants (not its name), and every result-affecting option —
// criterion, mode, area budget, integerization widths, candidate caps,
// nest structure, RS placements, pruning ablation, and solver
// tolerances. Worker counts and telemetry handles are excluded: they
// cannot change the result. Options are resolved to their defaults
// first, so an explicit default and a zero value hash equal. Callers
// use it to group problems that a shared cache would deduplicate.
func SolveSignature(p *loopnest.Problem, opts Options) cache.Signature {
	return solveKey(p, opts.WithDefaults()).Signature()
}

// solveKey flattens resolved options into a cache key. opts must
// already have defaults applied.
func solveKey(p *loopnest.Problem, opts Options) cache.Key {
	s := opts.Solver
	return cache.Key{
		Component:    "optimize",
		Problem:      p,
		Arch:         opts.Arch,
		Criterion:    opts.Criterion,
		Nest:         opts.Nest,
		RSPlacements: opts.RSPlacements,
		Params: []cache.Param{
			cache.ParamString("mode", opts.Mode.String()),
			cache.ParamFloat("area_budget", opts.AreaBudget),
			cache.ParamInt("ndiv", int64(opts.NDiv)),
			cache.ParamInt("npow2", int64(opts.NPow2)),
			cache.ParamFloat("min_utilization", opts.MinUtilization),
			cache.ParamInt("max_candidates", int64(opts.MaxCandidates)),
			cache.ParamInt("top_classes", int64(opts.TopClasses)),
			cache.ParamBool("disable_pruning", opts.DisablePruning),
			cache.ParamFloat("solver.tol", s.Tol),
			cache.ParamFloat("solver.newton_tol", s.NewtonTol),
			cache.ParamFloat("solver.mu", s.Mu),
			cache.ParamFloat("solver.t0", s.T0),
			cache.ParamInt("solver.max_newton", int64(s.MaxNewton)),
			cache.ParamInt("solver.max_centering", int64(s.MaxCentering)),
			cache.ParamFloat("solver.box", s.Box),
		},
	}
}

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
// counters, and leveled progress logs. A bare context makes every hook
// a nil no-op. When a SolveCache is configured (Options.Cache or
// ContextWithCache), the run is memoized by content signature and a
// repeated request short-circuits before class enumeration and GP
// formulation; see SolveSignature for what the signature covers.
//
// The search itself is delegated to pipeline.Execute. A scheduler
// attached to ctx (pipeline.ContextWithScheduler) bounds this call's
// leaf compute jointly with every other optimization sharing it;
// otherwise the run gets its own bound of Options.Parallel.
func OptimizeContext(ctx context.Context, p *loopnest.Problem, opts Options) (*Result, error) {
	return OptimizeSigned(ctx, p, opts, cache.Signature{})
}

// OptimizeSigned is OptimizeContext for a caller that already holds the
// problem's solve signature: sig must be SolveSignature(p, opts), or
// zero when the caller has none. A zero sig is computed here, only if a
// cache or an event sink needs it. Either way the signature is recorded
// on the returned Result, so each distinct problem is hashed once per
// request.
func OptimizeSigned(ctx context.Context, p *loopnest.Problem, opts Options, sig cache.Signature) (*Result, error) {
	opts = opts.WithDefaults()
	o := obs.FromContext(ctx)
	ctx, span := obs.StartSpan(ctx, "optimize",
		obs.String("problem", p.Name), obs.String("mode", opts.Mode.String()))
	defer span.End()
	sc := opts.Cache
	if sc == nil {
		sc = CacheFromContext(ctx)
	}
	// The run-event stream gets an optimize_start/optimize_end pair per
	// request; optimize_end carries the full row the manifest recorder
	// folds into the per-layer table (see events.Schema).
	emit := o.EventsEnabled()
	if sig == (cache.Signature{}) && (sc != nil || emit) {
		sig = solveKey(p, opts).Signature()
	}
	var t0 time.Time
	if emit {
		//tlvet:ignore wallclock -- telemetry: wall_us on optimize events; never feeds solve results
		t0 = time.Now()
		o.Emit(obs.EvOptimizeStart, map[string]any{
			"problem":   p.Name,
			"sig":       sig.Short(),
			"mode":      opts.Mode.String(),
			"criterion": opts.Criterion.String(),
		})
	}
	finish := func(res *Result, err error) (*Result, error) {
		if emit {
			f := map[string]any{
				"problem": p.Name,
				"sig":     sig.Short(),
				//tlvet:ignore wallclock -- telemetry: wall_us on optimize events; never feeds solve results
				"wall_us": time.Since(t0).Microseconds(),
			}
			if err != nil || res == nil || res.Best == nil {
				f["status"] = "error"
				if err != nil {
					f["error"] = err.Error()
				}
			} else {
				rep := res.Best.Report
				f["status"] = "ok"
				f["energy_pj"] = rep.Energy
				f["cycles"] = rep.Cycles
				f["edp"] = rep.Energy * rep.Cycles
				f["energy_per_mac"] = rep.EnergyPerMAC
				f["ipc"] = rep.IPC
				f["pairs_solved"] = res.Stats.PairsSolved
				f["fresh_solves"] = res.Stats.FreshSolves
				f["candidates"] = res.Stats.Candidates
				f["from_cache"] = res.Stats.FromCache
			}
			o.Emit(obs.EvOptimizeEnd, f)
		}
		return res, err
	}
	solve := func() (*Result, error) {
		res, err := pipeline.Execute(ctx, p, opts)
		if res != nil {
			res.Signature = sig
		}
		return res, err
	}
	if sc == nil {
		return finish(solve())
	}
	span.Annotate(obs.String("cache_sig", sig.Short()))
	res, hit, err := sc.Do(sig, solve)
	if err != nil {
		return finish(nil, err)
	}
	if !hit {
		span.SetAttr("cache", "miss")
		return finish(res, nil)
	}
	span.SetAttr("cache", "hit")
	if o.Enabled(obs.Info) {
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
	return finish(&out, nil)
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

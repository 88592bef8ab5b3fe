package main

import (
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/obs/tracefile"
)

// minStageCoverage is the share of the placement spans' wall time the
// stage spans must cover in a traced run that solved anything: per-stage
// times have to add up to the wall clock.
const minStageCoverage = 0.95

// stageNames are the pipeline stages, each traced as a "stage:<name>"
// span under its RS placement.
var stageNames = []string{"enumerate", "formulate", "solve", "integerize", "validate", "select"}

// layerInputs is what a run observed below its end-to-end metrics.
// Spans and counters come from the traced window, so a traced run's
// per-layer costs and its untraced times do not mix; allocations come
// from the untraced window.
type layerInputs struct {
	spans    map[string]int64 // summed span durations in µs, by span name
	counters map[string]int64 // counter increments
	solves   int              // traced-window calls that ran the optimizer
	calls    int              // untraced-window primary calls: layers or requests
	// plain and traced are the passes of the two windows; their times in
	// reference units give the tracing overhead.
	plain, traced passStats
	svc           *serviceInputs // serve-warm only
}

// serviceInputs are the per-layer observations of serve-warm.
type serviceInputs struct {
	cache              cache.Stats   // increments over the measured windows
	p50, p90           time.Duration // medians of the batches' request percentiles, untraced window
	rejected           int64         // admission rejections
	signature, warmHit time.Duration // medians of bare core calls, timed by the bench
}

// metrics derives the per-layer metrics. Span and counter costs are per
// call that ran the optimizer, the runtime counters per primary call;
// layers a workload does not exercise read 0.
func (in layerInputs) metrics() map[string]float64 {
	perSolve := func(v float64) float64 { return ratio(v, float64(in.solves)) }
	spanMS := func(name string) float64 { return perSolve(float64(in.spans[name]) / 1000) }
	count := func(name string) float64 { return perSolve(float64(in.counters[name])) }
	c := func(name string) float64 { return float64(in.counters[name]) }
	mem := in.plain.mem
	var stages float64
	m := map[string]float64{
		"solver.phase1_ms":             spanMS("phase-i"),
		"solver.phase2_ms":             spanMS("phase-ii"),
		"solver.phase1_runs":           count("solver.phase1_runs"),
		"solver.newton_iters":          count("solver.newton_iters"),
		"solver.linesearch_backtracks": count("solver.linesearch_backtracks"),
		"solver.warmstart_hit_ratio":   ratio(c("solver.warmstart.hit"), c("solver.warmstart.hit")+c("solver.warmstart.miss")),
		"model.eval_ms":                spanMS("model-eval"),
		"core.int_candidates":          count("core.int_candidates"),
		"core.validate_dropped":        count("core.validate_dropped"),
		"core.pairs_solved":            count("core.pairs_solved"),
		"core.pairs_pruned":            count("core.pairs_pruned"),
		"core.prune_ratio":             ratio(c("core.pairs_pruned"), c("core.pairs_pruned")+c("core.pairs_solved")),
		"dataflow.enumerate_ms":        spanMS("enumerate-classes"),
		"gp.formulate_ms":              spanMS("formulate"),
		"pipeline.sched_wait_ms":       spanMS("sched-wait"),
		"runtime.mallocs_per_op":       ratio(float64(mem.mallocs), float64(in.calls)),
		"runtime.alloc_mb_per_op":      ratio(float64(mem.bytes)/(1<<20), float64(in.calls)),
		"runtime.gc_pause_ms":          ratio(float64(mem.pauseNS)/1e6, float64(in.calls)),
		"bench.pass_ms":                ms(in.plain.wall),
	}
	for _, st := range stageNames {
		m["pipeline.stage."+st+"_ms"] = spanMS("stage:" + st)
		stages += float64(in.spans["stage:"+st])
	}
	m["pipeline.stage_coverage"] = ratio(stages, float64(in.spans["rs-placement"]))
	m["obs.tracing_overhead_pct"] = 0
	if in.traced.ops > 0 {
		m["obs.tracing_overhead_pct"] = 100 * (in.traced.inRefs/in.plain.inRefs - 1)
	}
	s := in.svc
	if s == nil {
		s = &serviceInputs{}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	m["core.signature_us"] = us(s.signature)
	m["core.warm_hit_us"] = us(s.warmHit)
	m["cache.hit_ratio"] = s.cache.HitRate()
	m["serve.latency_p50_ms"] = ms(s.p50)
	m["serve.latency_p90_ms"] = ms(s.p90)
	m["serve.rejected"] = float64(s.rejected)
	return m
}

// setLayers stores the per-layer metrics and invalidates a traced run
// whose stage spans do not add up to the placement spans.
func (o *outcome) setLayers(in layerInputs) {
	o.layer, o.plain = in.metrics(), in.plain
	if in.counters["core.pairs_solved"] == 0 {
		return
	}
	if cov := o.layer["pipeline.stage_coverage"]; cov < minStageCoverage {
		o.invalidate("stage spans cover %.3f of the placement spans' wall time, want at least %.2f", cov, minStageCoverage)
	}
}

// spanTotals sums a trace's span durations (µs) by span name.
func spanTotals(t *tracefile.Trace) map[string]int64 {
	acc := map[string]int64{}
	for _, s := range t.Spans {
		acc[s.Name] += s.DurUS
	}
	return acc
}

// counterDelta is the increment of every counter between two snapshots.
func counterDelta(before, after obs.Snapshot) map[string]int64 {
	base := make(map[string]int64, len(before.Counters))
	for _, c := range before.Counters {
		base[c.Name] = c.Value
	}
	out := make(map[string]int64, len(after.Counters))
	for _, c := range after.Counters {
		out[c.Name] = c.Value - base[c.Name]
	}
	return out
}

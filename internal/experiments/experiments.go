// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V): the workload/technology tables (II, III), the
// fixed-Eyeriss energy and throughput comparisons between Thistle and the
// Mapper baseline (Figs. 4, 7), the layer-wise architecture-dataflow
// co-design results (Figs. 5, 8), and the single-architecture-for-all-
// layers studies (Figs. 6, 8).
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/loopnest"
	"repro/internal/mapper"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

// Config tunes an experiment run.
type Config struct {
	// Layers defaults to all 23 Table II layers.
	Layers []workloads.Layer
	// Quick reduces mapper budgets and layer counts for tests/benches.
	Quick bool
	// Seed makes mapper runs deterministic.
	Seed int64
	// Verbose writes progress lines to Progress.
	Progress io.Writer
	// Obs receives telemetry from the experiment runs: a span per
	// experiment with per-layer children (each wrapping its Thistle and
	// mapper sub-runs), plus the core/solver/mapper counters. Nil
	// disables it.
	Obs *obs.Obs
	// Cache memoizes Thistle solves by content signature across layers
	// and experiments. The paper's sweeps re-solve the same (shape ×
	// architecture × criterion) problem repeatedly — Figs. 4, 5, and 6
	// all need the energy-optimal Eyeriss dataflow of every layer, for
	// example — so one shared cache removes most of the duplicate GP
	// work. Nil disables memoization.
	Cache *core.SolveCache
}

func (c Config) withDefaults() Config {
	if c.Layers == nil {
		if c.Quick {
			all := workloads.All()
			// A small representative subset: early, middle, late layers of
			// each pipeline.
			c.Layers = []workloads.Layer{all[1], all[7], all[13], all[18]}
		} else {
			c.Layers = workloads.All()
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) mapperOptions(crit model.Criterion) mapper.Options {
	o := mapper.Options{Criterion: crit, Seed: c.Seed}
	if c.Quick {
		o.Threads = 2
		o.MaxTrials = 1500
		o.Victory = 500
	} else {
		o.Threads = 8
		o.MaxTrials = 20000
		o.Victory = 4000
	}
	return o
}

func (c Config) progress(format string, args ...interface{}) {
	if c.Progress != nil {
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// startSpan opens the root span of one experiment, returning a context
// that carries the telemetry bundle and the solve cache for the
// per-layer sub-runs.
func (c Config) startSpan(id string) (context.Context, *obs.Span) {
	ctx := obs.NewContext(context.Background(), c.Obs)
	ctx = core.ContextWithCache(ctx, c.Cache)
	return obs.StartSpan(ctx, "experiment", obs.String("id", id))
}

// layerSpan opens a per-layer child span inside an experiment.
func layerSpan(ctx context.Context, l workloads.Layer) (context.Context, *obs.Span) {
	return obs.StartSpan(ctx, "layer", obs.String("name", l.Name()))
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Values []float64
}

// Experiment is a regenerated table or figure.
type Experiment struct {
	ID     string // "fig4", "table2", ...
	Title  string
	Unit   string
	Labels []string // x-axis labels (layer names)
	Series []Series
	Notes  []string
}

// Render writes the experiment as an aligned text table.
func (e *Experiment) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s", e.ID, e.Title)
	if e.Unit != "" {
		fmt.Fprintf(w, " [%s]", e.Unit)
	}
	fmt.Fprintln(w)
	header := append([]string{"layer"}, names(e.Series)...)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for i, label := range e.Labels {
		row := []string{label}
		for _, s := range e.Series {
			if i < len(s.Values) {
				row = append(row, fmt.Sprintf("%.3f", s.Values[i]))
			} else {
				row = append(row, "-")
			}
		}
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	for _, n := range e.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

func names(ss []Series) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Name
	}
	return out
}

// layerNames extracts x-axis labels.
func layerNames(ls []workloads.Layer) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = l.Name()
	}
	return out
}

// thistleFixed runs Thistle dataflow optimization on a fixed architecture.
func thistleFixed(ctx context.Context, l workloads.Layer, a *arch.Arch, crit model.Criterion) (*core.Result, error) {
	p, err := l.Problem()
	if err != nil {
		return nil, err
	}
	return core.OptimizeContext(ctx, p, core.Options{Criterion: crit, Mode: core.FixedArch, Arch: a})
}

// thistleCoDesign runs full architecture-dataflow co-design at the
// Eyeriss-equal area budget.
func thistleCoDesign(ctx context.Context, l workloads.Layer, crit model.Criterion) (*core.Result, error) {
	p, err := l.Problem()
	if err != nil {
		return nil, err
	}
	return core.OptimizeContext(ctx, p, core.Options{Criterion: crit, Mode: core.CoDesign})
}

// Table2 renders the workload table.
func Table2(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	e := &Experiment{
		ID:     "table2",
		Title:  "Conv2D operator configurations (Table II)",
		Labels: layerNames(cfg.Layers),
		Series: []Series{
			{Name: "K"}, {Name: "C"}, {Name: "H=W(in)"}, {Name: "R=S"},
			{Name: "stride"}, {Name: "MMACs"},
		},
	}
	for _, l := range cfg.Layers {
		e.Series[0].Values = append(e.Series[0].Values, float64(l.K))
		e.Series[1].Values = append(e.Series[1].Values, float64(l.C))
		e.Series[2].Values = append(e.Series[2].Values, float64(l.HIn))
		e.Series[3].Values = append(e.Series[3].Values, float64(l.RS))
		e.Series[4].Values = append(e.Series[4].Values, float64(l.Stride))
		e.Series[5].Values = append(e.Series[5].Values, float64(l.MACs())/1e6)
	}
	return e, nil
}

// Table3 renders the technology-parameter table.
func Table3(Config) (*Experiment, error) {
	t := arch.Tech45nm()
	e := &Experiment{
		ID:    "table3",
		Title: "Architecture parameters (Table III, 45nm)",
		Labels: []string{
			"area_per_MAC_um2", "area_per_register_um2", "area_per_SRAM_word_um2",
			"energy_per_MAC_pJ", "register_energy_const", "SRAM_energy_const",
			"energy_per_DRAM_access_pJ",
		},
		Series: []Series{{Name: "value", Values: []float64{
			t.AreaMAC, t.AreaRegister, t.AreaSRAMWord,
			t.EnergyMAC, t.SigmaR, t.SigmaS, t.EnergyDRAM,
		}}},
		Notes: []string{
			"SRAM energy-constant interpreted as pJ/(word*sqrt(word)) x 10^-3; see DESIGN.md",
		},
	}
	return e, nil
}

// Fig4 compares energy between the Mapper baseline and Thistle on the
// fixed Eyeriss architecture (pJ/MAC, lower is better), plus the
// EnergyUp = Mapper/Thistle ratio line.
func Fig4(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	eyeriss := arch.Eyeriss()
	thistle := Series{Name: "thistle_pJ_per_MAC"}
	mapperS := Series{Name: "mapper_pJ_per_MAC"}
	up := Series{Name: "energy_up"}
	ctx, span := cfg.startSpan("fig4")
	defer span.End()
	for _, l := range cfg.Layers {
		cfg.progress("fig4 %s", l.Name())
		lctx, lspan := layerSpan(ctx, l)
		res, err := thistleFixed(lctx, l, &eyeriss, model.MinEnergy)
		if err != nil {
			lspan.End()
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		p, err := l.Problem()
		if err != nil {
			lspan.End()
			return nil, err
		}
		mo := cfg.mapperOptions(model.MinEnergy)
		mo.Obs = cfg.Obs
		mo.Span = lspan
		ms, err := mapper.Search(p, &eyeriss, mo)
		lspan.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		thistle.Values = append(thistle.Values, res.Best.Report.EnergyPerMAC)
		mapperS.Values = append(mapperS.Values, ms.Report.EnergyPerMAC)
		up.Values = append(up.Values, ms.Report.EnergyPerMAC/res.Best.Report.EnergyPerMAC)
	}
	return &Experiment{
		ID:     "fig4",
		Title:  "Energy: Timeloop-Mapper-substitute vs Thistle, Eyeriss architecture",
		Unit:   "pJ/MAC",
		Labels: layerNames(cfg.Layers),
		Series: []Series{thistle, mapperS, up},
	}, nil
}

// Fig5 compares the best Eyeriss dataflow against layer-wise co-designed
// architectures at equal area (energy criterion).
func Fig5(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	eyeriss := arch.Eyeriss()
	base := Series{Name: "eyeriss_pJ_per_MAC"}
	codesign := Series{Name: "codesign_pJ_per_MAC"}
	var notes []string
	ctx, span := cfg.startSpan("fig5")
	defer span.End()
	for _, l := range cfg.Layers {
		cfg.progress("fig5 %s", l.Name())
		lctx, lspan := layerSpan(ctx, l)
		rb, err := thistleFixed(lctx, l, &eyeriss, model.MinEnergy)
		if err != nil {
			lspan.End()
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		rc, err := thistleCoDesign(lctx, l, model.MinEnergy)
		lspan.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		base.Values = append(base.Values, rb.Best.Report.EnergyPerMAC)
		codesign.Values = append(codesign.Values, rc.Best.Report.EnergyPerMAC)
		notes = append(notes, fmt.Sprintf("%s codesign arch: %s", l.Name(), rc.Best.Arch.String()))
	}
	return &Experiment{
		ID:     "fig5",
		Title:  "Energy: Eyeriss vs layer-wise co-designed architecture (equal area)",
		Unit:   "pJ/MAC",
		Labels: layerNames(cfg.Layers),
		Series: []Series{base, codesign},
		Notes:  notes,
	}, nil
}

// OptimizeLayers runs the Thistle flow for every layer with shared
// options, deduplicating across layers: layers whose problems share a
// solve signature (same shape, same options — see core.SolveSignature)
// are grouped, each group is solved exactly once (handed its grouping
// signature, so the problem is not hashed again), and the group's
// result is fanned back out to every member. Groups are solved
// concurrently, but total leaf compute stays bounded: every group draws
// from one pipeline scheduler — the one already on ctx
// (pipeline.ContextWithScheduler) or a fresh one sized by
// opts.Parallel — so submitting N layers never multiplies the
// configured concurrency by N. Grouping happens before any solve, so
// each signature's owner (the "from" layer of the layer_reused events)
// is always the first layer in input order, independent of completion
// order.
//
// The returned slice is index-aligned with layers; deduplicated entries
// share one *Result (treat them as immutable). A solve cache on the
// context additionally memoizes groups across separate OptimizeLayers
// calls and process restarts. The dedup count is recorded on the obs
// counter "experiments.layers_deduped". On failure, the first solve
// error in input order is returned (cancellation of the siblings is
// reported only when no layer failed on its own).
func OptimizeLayers(ctx context.Context, layers []workloads.Layer, opts core.Options, progress func(workloads.Layer)) ([]*core.Result, error) {
	o := obs.FromContext(ctx)
	if o.EventsEnabled() {
		o.Emit(obs.EvLayersTotal, map[string]any{"total": len(layers)})
	}
	// Group by signature before solving anything, in input order.
	probs := make([]*loopnest.Problem, len(layers))
	sigs := make([]cache.Signature, len(layers))
	first := make(map[cache.Signature]int, len(layers))
	owners := make([]int, 0, len(layers)) // group owners, in input order
	for i, l := range layers {
		p, err := l.Problem()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		probs[i] = p
		sigs[i] = core.SolveSignature(p, opts)
		if _, ok := first[sigs[i]]; !ok {
			first[sigs[i]] = i
			owners = append(owners, i)
		}
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
	outs := make([]*core.Result, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for gi, i := range owners {
		if progress != nil {
			progress(layers[i])
		}
		wg.Add(1)
		go func(gi, i int) {
			defer wg.Done()
			lctx, lspan := layerSpan(cctx, layers[i])
			r, err := core.OptimizeSigned(lctx, probs[i], opts, sigs[i])
			lspan.End()
			if err != nil {
				errs[gi] = err
				cancel() // stop admitting the other groups' leaf jobs
				return
			}
			outs[gi] = r
		}(gi, i)
	}
	wg.Wait()
	// Deterministic error: the first real failure in input order beats
	// the cancellations it caused in sibling groups.
	var firstErr error
	for gi, err := range errs {
		if err == nil {
			continue
		}
		wrapped := fmt.Errorf("%s: %w", layers[owners[gi]].Name(), err)
		if !errors.Is(err, context.Canceled) {
			return nil, wrapped
		}
		if firstErr == nil {
			firstErr = wrapped
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// Fan the group results back out and report reuse in input order.
	results := make([]*core.Result, len(layers))
	ownerOut := make(map[cache.Signature]*core.Result, len(owners))
	for gi, i := range owners {
		ownerOut[sigs[i]] = outs[gi]
	}
	deduped := 0
	for i, l := range layers {
		results[i] = ownerOut[sigs[i]]
		j := first[sigs[i]]
		if j == i {
			continue
		}
		deduped++
		if o.EventsEnabled() {
			// A reused row with the source layer's numbers, so
			// manifests of deduplicated whole-network runs still
			// cover every layer (see events.Schema).
			rep := results[i].Best.Report
			o.Emit(obs.EvLayerReused, map[string]any{
				"problem":        l.Name(),
				"from":           layers[j].Name(),
				"sig":            sigs[i].Short(),
				"energy_pj":      rep.Energy,
				"cycles":         rep.Cycles,
				"edp":            rep.Energy * rep.Cycles,
				"energy_per_mac": rep.EnergyPerMAC,
				"ipc":            rep.IPC,
			})
		}
	}
	if deduped > 0 {
		o.Counter("experiments.layers_deduped").Add(int64(deduped))
		if o.Enabled(obs.Info) {
			o.Logf(obs.Info, "dedup: %d of %d layers shared a solve signature", deduped, len(layers))
		}
	}
	return results, nil
}

// codesignAll runs layer-wise co-design for every layer and returns the
// per-layer results, solving each distinct layer shape once.
func codesignAll(ctx context.Context, cfg Config, crit model.Criterion) ([]*core.Result, error) {
	return OptimizeLayers(ctx, cfg.Layers, core.Options{Criterion: crit, Mode: core.CoDesign},
		func(l workloads.Layer) { cfg.progress("codesign(%v) %s", crit, l.Name()) })
}

// dominantIndex returns the layer index whose layer-wise design has the
// largest total cost (energy in pJ or delay in cycles).
func dominantIndex(results []*core.Result, crit model.Criterion) int {
	best, bestV := 0, -1.0
	for i, r := range results {
		v := model.Score(crit, r.Best.Report)
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Fig6 shows energy for (1) Eyeriss, (2) layer-wise optimal architecture,
// and (3) one fixed architecture chosen from the energy-dominant layer.
func Fig6(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	eyeriss := arch.Eyeriss()
	ctx, span := cfg.startSpan("fig6")
	defer span.End()
	lw, err := codesignAll(ctx, cfg, model.MinEnergy)
	if err != nil {
		return nil, err
	}
	dom := dominantIndex(lw, model.MinEnergy)
	fixed := lw[dom].Best.Arch
	fixed.Name = "fixed_" + cfg.Layers[dom].Name()

	base := Series{Name: "eyeriss_pJ_per_MAC"}
	layerwise := Series{Name: "layerwise_pJ_per_MAC"}
	single := Series{Name: "single_arch_pJ_per_MAC"}
	for i, l := range cfg.Layers {
		cfg.progress("fig6 %s", l.Name())
		lctx, lspan := layerSpan(ctx, l)
		rb, err := thistleFixed(lctx, l, &eyeriss, model.MinEnergy)
		if err != nil {
			lspan.End()
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		rf, err := thistleFixed(lctx, l, &fixed, model.MinEnergy)
		lspan.End()
		if err != nil {
			return nil, fmt.Errorf("%s single-arch: %w", l.Name(), err)
		}
		base.Values = append(base.Values, rb.Best.Report.EnergyPerMAC)
		layerwise.Values = append(layerwise.Values, lw[i].Best.Report.EnergyPerMAC)
		single.Values = append(single.Values, rf.Best.Report.EnergyPerMAC)
	}
	return &Experiment{
		ID:     "fig6",
		Title:  "Energy: Eyeriss vs layer-wise vs single architecture from the energy-dominant layer",
		Unit:   "pJ/MAC",
		Labels: layerNames(cfg.Layers),
		Series: []Series{base, layerwise, single},
		Notes: []string{fmt.Sprintf("energy-dominant layer: %s, architecture: %s",
			cfg.Layers[dom].Name(), fixed.String())},
	}, nil
}

// Fig7 compares throughput (MAC IPC) between the Mapper baseline and
// Thistle on the fixed Eyeriss architecture, plus the speedup line.
func Fig7(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	eyeriss := arch.Eyeriss()
	thistle := Series{Name: "thistle_IPC"}
	mapperS := Series{Name: "mapper_IPC"}
	speedup := Series{Name: "speedup"}
	ctx, span := cfg.startSpan("fig7")
	defer span.End()
	for _, l := range cfg.Layers {
		cfg.progress("fig7 %s", l.Name())
		lctx, lspan := layerSpan(ctx, l)
		res, err := thistleFixed(lctx, l, &eyeriss, model.MinDelay)
		if err != nil {
			lspan.End()
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		p, err := l.Problem()
		if err != nil {
			lspan.End()
			return nil, err
		}
		mo := cfg.mapperOptions(model.MinDelay)
		mo.Obs = cfg.Obs
		mo.Span = lspan
		ms, err := mapper.Search(p, &eyeriss, mo)
		lspan.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		thistle.Values = append(thistle.Values, res.Best.Report.IPC)
		mapperS.Values = append(mapperS.Values, ms.Report.IPC)
		speedup.Values = append(speedup.Values, res.Best.Report.IPC/ms.Report.IPC)
	}
	return &Experiment{
		ID:     "fig7",
		Title:  "Throughput: Timeloop-Mapper-substitute vs Thistle, Eyeriss architecture (max IPC 168)",
		Unit:   "MAC IPC",
		Labels: layerNames(cfg.Layers),
		Series: []Series{thistle, mapperS, speedup},
	}, nil
}

// Fig8 shows throughput for (1) Eyeriss, (2) layer-wise co-designed
// architectures, and (3) one fixed architecture from the delay-dominant
// layer.
func Fig8(cfg Config) (*Experiment, error) {
	cfg = cfg.withDefaults()
	eyeriss := arch.Eyeriss()
	ctx, span := cfg.startSpan("fig8")
	defer span.End()
	lw, err := codesignAll(ctx, cfg, model.MinDelay)
	if err != nil {
		return nil, err
	}
	dom := dominantIndex(lw, model.MinDelay)
	fixed := lw[dom].Best.Arch
	fixed.Name = "fixed_" + cfg.Layers[dom].Name()

	base := Series{Name: "eyeriss_IPC"}
	layerwise := Series{Name: "layerwise_IPC"}
	single := Series{Name: "single_arch_IPC"}
	for i, l := range cfg.Layers {
		cfg.progress("fig8 %s", l.Name())
		lctx, lspan := layerSpan(ctx, l)
		rb, err := thistleFixed(lctx, l, &eyeriss, model.MinDelay)
		if err != nil {
			lspan.End()
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		rf, err := thistleFixed(lctx, l, &fixed, model.MinDelay)
		lspan.End()
		if err != nil {
			return nil, fmt.Errorf("%s single-arch: %w", l.Name(), err)
		}
		base.Values = append(base.Values, rb.Best.Report.IPC)
		layerwise.Values = append(layerwise.Values, lw[i].Best.Report.IPC)
		single.Values = append(single.Values, rf.Best.Report.IPC)
	}
	return &Experiment{
		ID:     "fig8",
		Title:  "Delay: Eyeriss vs layer-wise vs single architecture from the delay-dominant layer",
		Unit:   "MAC IPC",
		Labels: layerNames(cfg.Layers),
		Series: []Series{base, layerwise, single},
		Notes: []string{fmt.Sprintf("delay-dominant layer: %s, architecture: %s",
			cfg.Layers[dom].Name(), fixed.String())},
	}, nil
}

// Runner is a table/figure generator.
type Runner func(Config) (*Experiment, error)

// All maps experiment ids to runners.
func AllRunners() map[string]Runner {
	return map[string]Runner{
		"table2":  Table2,
		"table3":  Table3,
		"fig4":    Fig4,
		"fig5":    Fig5,
		"fig6":    Fig6,
		"fig7":    Fig7,
		"fig8":    Fig8,
		"ext_edp": ExtEDP,
		"ext_noc": ExtNoC,
	}
}

// Order lists experiment ids: the paper's tables and figures first, then
// the extensions this reproduction adds (EDP objective, NoC energy).
func Order() []string {
	return []string{"table2", "table3", "fig4", "fig5", "fig6", "fig7", "fig8", "ext_edp", "ext_noc"}
}

// RenderBars writes, per series, a crude textual bar chart (one row per
// layer, bar length proportional to the value within the series' own
// range) so result shapes are inspectable straight from a terminal.
func (e *Experiment) RenderBars(w io.Writer) {
	const width = 40
	fmt.Fprintf(w, "== %s: %s [%s]\n", e.ID, e.Title, e.Unit)
	for _, s := range e.Series {
		if len(s.Values) == 0 {
			continue
		}
		maxV := s.Values[0]
		for _, v := range s.Values {
			if v > maxV {
				maxV = v
			}
		}
		fmt.Fprintf(w, "-- %s (max %.3f)\n", s.Name, maxV)
		for i, v := range s.Values {
			n := 0
			if maxV > 0 {
				n = int(v / maxV * width)
			}
			label := ""
			if i < len(e.Labels) {
				label = e.Labels[i]
			}
			fmt.Fprintf(w, "%-14s %8.3f |%s\n", label, v, strings.Repeat("#", n))
		}
	}
}

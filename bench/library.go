package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/core"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/tracefile"
	"repro/internal/workloads"
)

// library is a workload of cold core.OptimizeContext calls, one layer at
// a time from one caller, in passes over its layers, each pass in a
// fresh seeded order. Calls run at scheduler width 1: at width 2 a call's
// time depends on whether the host gives the second vCPU a whole core,
// and a layer's calls spread twice as widely.
type library struct {
	name   string
	opts   core.Options
	layers []workloads.Layer
	warmUp string // layer optimized once in set-up, untimed by the window
	// Every design's value must equal the column of results/<file>, at
	// its 3 decimals.
	file, column, what string
	value              func(*model.Report) float64
}

// runTable2 is table2-energy: the Table II layers on the fixed Eyeriss
// architecture for energy — the `thistle -layer` path. Results must
// match Fig. 4's Thistle column.
func runTable2(cfg *config) (*outcome, error) {
	return library{
		name:   "table2-energy",
		opts:   core.Options{Criterion: model.MinEnergy, Mode: core.FixedArch, Parallel: 1},
		layers: cfg.table2,
		warmUp: "resnet18_L6", // a mid-sized layer, ~0.7 s
		file:   "fig4.tsv", column: "thistle_pJ_per_MAC", what: "pJ/MAC",
		value: func(r *model.Report) float64 { return r.EnergyPerMAC },
	}.run(cfg)
}

// runCodesign is codesign-delay: architecture-dataflow co-design for
// delay, the per-layer optimization of the paper's Fig. 8. Results must
// match Fig. 8's layer-wise co-design column.
func runCodesign(cfg *config) (*outcome, error) {
	return library{
		name:   "codesign-delay",
		opts:   core.Options{Criterion: model.MinDelay, Mode: core.CoDesign, Parallel: 1},
		layers: cfg.codesign,
		warmUp: "resnet18_L11", // the cheapest layer to co-design, ~0.3 s
		file:   "fig8.tsv", column: "layerwise_IPC", what: "IPC",
		value: func(r *model.Report) float64 { return r.IPC },
	}.run(cfg)
}

func (w library) run(cfg *config) (*outcome, error) {
	refs, err := readColumn(cfg.root, w.file, w.column)
	if err != nil {
		return nil, err
	}
	var probs []*loopnest.Problem
	setup, err := medianSetup(cfg.setups, func() error {
		var err error
		if probs, err = problems(w.layers); err != nil {
			return err
		}
		return warmUp(w.warmUp, w.opts)
	})
	if err != nil {
		return nil, err
	}
	type call struct {
		i   int
		res *core.Result
		err error
	}
	var calls []call
	rng := rand.New(rand.NewSource(cfg.seed))
	window := func(ctx context.Context) ([]*pass, error) {
		return measurePasses(cfg.halves(), func(p *pass) error {
			for _, i := range rng.Perm(len(probs)) {
				p.timeOp(func() {
					cctx, span := obs.StartSpan(ctx, "bench:"+w.name)
					res, err := core.OptimizeContext(cctx, probs[i], w.opts)
					span.End()
					calls = append(calls, call{i, res, err})
				})
			}
			return nil
		})
	}
	plain, err := window(context.Background())
	if err != nil {
		return nil, err
	}
	in := layerInputs{plain: summarize(plain)}
	in.calls = in.plain.ops
	if cfg.traced {
		tr, reg := obs.NewTracer(), obs.NewRegistry()
		traced, err := window(obs.NewContext(context.Background(), &obs.Obs{Tracer: tr, Metrics: reg}))
		if err != nil {
			return nil, err
		}
		t, err := writeTrace(tr, cfg.traceDir(), w.name+".trace.json")
		if err != nil {
			return nil, err
		}
		in.traced = summarize(traced)
		in.solves = in.traced.ops
		in.spans = spanTotals(t)
		in.counters = counterDelta(obs.Snapshot{}, reg.Snapshot())
	}

	out := &outcome{attempted: len(calls)}
	for _, c := range calls {
		p := probs[c.i]
		err := c.err
		if err == nil {
			err = checkRef(refs, p.Name, w.what, w.value(c.res.Best.Report))
		}
		if err == nil {
			err = checkDesign(p, c.res.Best)
		}
		if err != nil {
			out.failCall("%s: %v", p.Name, err)
		}
	}
	out.e2e = endToEnd(setup, in.plain)
	out.setLayers(in)
	return out, nil
}

func problems(layers []workloads.Layer) ([]*loopnest.Problem, error) {
	out := make([]*loopnest.Problem, len(layers))
	for i, l := range layers {
		p, err := l.Problem()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.Name(), err)
		}
		out[i] = p
	}
	return out, nil
}

// warmUp optimizes one layer, untimed by the window, so lazy
// initialization is paid before the window opens.
func warmUp(layer string, opts core.Options) error {
	l, _ := workloads.ByName(layer)
	p, err := l.Problem()
	if err != nil {
		return err
	}
	_, err = core.OptimizeContext(context.Background(), p, opts)
	return err
}

// writeTrace writes the tracer's spans as a Chrome trace and reads the
// file back with the reader `tlreport trace` uses.
func writeTrace(tr *obs.Tracer, dir, file string) (*tracefile.Trace, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := tr.WriteChromeTrace(f, map[string]string{"tool": "bench"}); err != nil {
		_ = f.Close() // the write error is the one to report
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	f, err = os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tracefile.Read(f)
}

// memStats are the runtime allocation counters an operation is charged.
type memStats struct{ mallocs, bytes, pauseNS uint64 }

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.Mallocs, m.TotalAlloc, m.PauseTotalNs}
}

func (a memStats) sub(b memStats) memStats {
	return memStats{a.mallocs - b.mallocs, a.bytes - b.bytes, a.pauseNS - b.pauseNS}
}

func (a memStats) add(b memStats) memStats {
	return memStats{a.mallocs + b.mallocs, a.bytes + b.bytes, a.pauseNS + b.pauseNS}
}

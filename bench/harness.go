package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/obs"
	//tlvet:ignore stagedep -- the benchmark drives thistled in-process, the way cmd/thistled does
	"repro/internal/serve"
	"repro/internal/workloads"
)

// coreCalls is how many bare core calls a traced run times.
const coreCalls = 2000

// harness is one in-process thistled — serve.New, driven through its
// HTTP handler — with its cache primed with every Table II layer.
type harness struct {
	srv     *serve.Server
	handler http.Handler
	reg     *obs.Registry
	primed  map[string]serve.LayerOutcome // priming row of each Table II layer
}

// startServers sets the service up n times — start and prime — and
// returns the last, with the median set-up time in seconds.
func startServers(n int) (*harness, float64, error) {
	var hs []*harness
	setup, err := medianSetup(n, func() error {
		h, err := startHarness()
		if err == nil {
			hs = append(hs, h)
		}
		return err
	})
	for i, h := range hs {
		if err != nil || i < len(hs)-1 {
			if cerr := h.close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		return nil, 0, err
	}
	return hs[len(hs)-1], setup, nil
}

func startHarness() (*harness, error) {
	h := &harness{reg: obs.NewRegistry()}
	o := &obs.Obs{Metrics: h.reg}
	h.srv = serve.New(serve.Config{
		Parallel:      parallel,
		MaxConcurrent: parallel,
		Obs:           o,
		Cache:         core.NewSolveCache(cache.Options{Capacity: len(workloads.All()), Obs: o}),
	})
	h.handler = h.srv.Handler()
	if err := h.prime(); err != nil {
		_ = h.close() // the priming error is the one to report
		return nil, err
	}
	return h, nil
}

// reply is one request's answer.
type reply struct {
	Layer  string
	Status int    // HTTP status
	Body   []byte // kept when asked for, and for every failure
}

func replyErr(rep reply) error {
	if rep.Status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rep.Status, rep.Body)
	}
	return nil
}

// post sends one POST /v1/optimize to the service's handler and returns
// its answer.
func (h *harness) post(body []byte, keep bool) reply {
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.handler.ServeHTTP(rec, req)
	rep := reply{Status: rec.Code}
	if keep || rec.Code != http.StatusOK {
		rep.Body = rec.Body.Bytes()
	}
	return rep
}

// requestBody is the encoded POST /v1/optimize body of req.
func requestBody(req serve.OptimizeRequest, traced bool) ([]byte, error) {
	req.Trace = traced
	return json.Marshal(req)
}

// prime fills the cache with one whole-network request — every Table II
// layer, energy on Eyeriss, which is what a request without options
// asks for — and keeps its rows as the reference for warm responses.
func (h *harness) prime() error {
	body, err := requestBody(serve.OptimizeRequest{Pipeline: "all"}, false)
	if err != nil {
		return err
	}
	rep := h.post(body, true)
	if err := replyErr(rep); err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(rep.Body, &resp); err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	h.primed = make(map[string]serve.LayerOutcome, len(resp.Results))
	for _, row := range resp.Results {
		h.primed[row.Problem] = row
	}
	return nil
}

// close drains and stops the service.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := h.srv.Drain(ctx)
	h.srv.Close()
	return err
}

// mark is the service's counters at the start of a window; window is
// what the service did between a mark and a later call to since.
type mark struct {
	cache   cache.Stats
	metrics obs.Snapshot
}

type window struct {
	cache    cache.Stats
	counters map[string]int64
}

func (h *harness) mark() mark {
	return mark{h.srv.Cache().Stats(), h.reg.Snapshot()}
}

func (h *harness) since(m mark) window {
	c := h.srv.Cache().Stats()
	return window{
		cache: cache.Stats{
			Hits:              c.Hits - m.cache.Hits,
			Misses:            c.Misses - m.cache.Misses,
			DiskHits:          c.DiskHits - m.cache.DiskHits,
			SingleflightWaits: c.SingleflightWaits - m.cache.SingleflightWaits,
			Stores:            c.Stores - m.cache.Stores,
			Evictions:         c.Evictions - m.cache.Evictions,
		},
		counters: counterDelta(m.metrics, h.reg.Snapshot()),
	}
}

// servedOptions are the options the service resolves a request without
// options to.
func servedOptions() core.Options {
	eyeriss := arch.Eyeriss()
	return core.Options{Arch: &eyeriss, Criterion: model.MinEnergy}
}

// sink keeps timed calls from being optimized away.
var sink any

// timeCoreCalls times the bare core calls inside a warm request — the
// solve signature, and a primed OptimizeContext served from the
// service's cache — each the median of coreCalls calls.
func (h *harness) timeCoreCalls() (sig, hit time.Duration, err error) {
	l, _ := workloads.ByName("resnet18_L6")
	p, err := l.Problem()
	if err != nil {
		return 0, 0, err
	}
	opts := servedOptions()
	ctx := core.ContextWithCache(context.Background(), h.srv.Cache())
	sigs := make([]time.Duration, coreCalls)
	hits := make([]time.Duration, coreCalls)
	for i := range sigs {
		t0 := time.Now()
		sink = core.SolveSignature(p, opts)
		sigs[i] = time.Since(t0)
		t0 = time.Now()
		res, err := core.OptimizeContext(ctx, p, opts)
		hits[i] = time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if !res.Stats.FromCache {
			return 0, 0, fmt.Errorf("%s: primed call was not served from the cache", p.Name)
		}
	}
	return quantile(sigs, 0.5), quantile(hits, 0.5), nil
}

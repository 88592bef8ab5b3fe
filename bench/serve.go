package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	//tlvet:ignore stagedep -- the benchmark drives thistled in-process, the way cmd/thistled does
	"repro/internal/serve"
	"repro/internal/workloads"
)

const (
	// warmRounds is how many rounds the warm request order cycles
	// through, each round asking for every Table II layer once, in a
	// fresh seeded order.
	warmRounds = 178
	// batchRequests is how many requests one batch sends: 50 rounds of
	// the 23 Table II layers, about 0.1 s, twice as long as the two
	// reference runs around it. Single reference runs vary more than
	// batches do, so more of them steady the ratio: over eight
	// alternating runs of each, its quartile spread was 2.8% with these
	// batches and 4.6% with batches of 200 rounds.
	batchRequests = 50 * 23
	// batchesPerPass is how many batches make a pass, so that a pass,
	// like a library workload's, is timed against several reference runs.
	batchesPerPass = 16
	// sampleEvery: the full rows of 1 in sampleEvery warm responses are
	// checked, after the window, so that checking takes no CPU from the
	// service while it is measured and the kept bodies stay few.
	sampleEvery = 400
)

// runServeWarm is serve-warm: thistled with a primed cache, so only the
// service's own work runs — decode, admission, signature, cache hit, run
// manifest, encode — and no GP is solved. One caller calls the
// service's HTTP handler in a closed loop, sending its next request as
// soon as the last one is answered, in batches timed between reference
// runs.
func runServeWarm(cfg *config) (*outcome, error) {
	refs, err := readColumn(cfg.root, "fig4.tsv", "thistle_pJ_per_MAC")
	if err != nil {
		return nil, err
	}
	h, setup, err := startServers(cfg.setups)
	if err != nil {
		return nil, err
	}
	out, err := h.measureWarm(cfg, refs, setup)
	if cerr := h.close(); err == nil {
		err = cerr
	}
	return out, err
}

// warmOrder is the seeded warm request order: warmRounds rounds of one
// `layer` request for each Table II layer, every round in a fresh seeded
// order. The paper's workload set is requested evenly, one layer per
// request, as BenchmarkServeWarm and scripts/servecheck request it;
// every request is a cache hit once the cache is primed, and does the
// same work. The seed only orders the requests.
func warmOrder(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	layers := workloads.All()
	out := make([]string, 0, warmRounds*len(layers))
	for round := 0; round < warmRounds; round++ {
		for _, i := range rng.Perm(len(layers)) {
			out = append(out, layers[i].Name())
		}
	}
	return out
}

// serveWindow is one measured window of serve-warm.
type serveWindow struct {
	passes     []*pass
	requests   int
	p50s, p90s []time.Duration // of each batch's requests
	replies    []reply         // sampled and failed requests
	svc        window
}

func (h *harness) measureWarm(cfg *config, refs map[string]string, setup float64) (*outcome, error) {
	order := warmOrder(cfg.seed)
	first := h.mark()
	sent := 0
	measure := func(traced bool) (*serveWindow, error) {
		bodies := map[string][]byte{}
		for _, l := range workloads.All() {
			b, err := requestBody(serve.OptimizeRequest{Layer: l.Name()}, traced)
			if err != nil {
				return nil, err
			}
			bodies[l.Name()] = b
		}
		w := &serveWindow{}
		m := h.mark()
		var err error
		w.passes, err = measurePasses(cfg.halves(), func(p *pass) error {
			for b := 0; b < batchesPerPass; b++ {
				rtts := make([]time.Duration, batchRequests)
				p.timeOp(func() {
					for k := range rtts {
						layer := order[(sent+k)%len(order)]
						t0 := time.Now()
						rep := h.post(bodies[layer], k%sampleEvery == 0)
						rtts[k] = time.Since(t0)
						if rep.Body != nil {
							rep.Layer = layer
							w.replies = append(w.replies, rep)
						}
					}
				})
				sent += batchRequests
				w.requests += batchRequests
				w.p50s = append(w.p50s, quantile(rtts, 0.5))
				w.p90s = append(w.p90s, quantile(rtts, 0.9))
			}
			return nil
		})
		w.svc = h.since(m)
		return w, err
	}
	plain, err := measure(false)
	if err != nil {
		return nil, err
	}
	windows := []*serveWindow{plain}
	in := layerInputs{plain: summarize(plain.passes), calls: plain.requests}
	if cfg.traced {
		traced, err := measure(true)
		if err != nil {
			return nil, err
		}
		windows = append(windows, traced)
		in.traced = summarize(traced.passes)
	}
	total := h.since(first)

	out := &outcome{}
	h.checkPrimed(out, refs)
	for _, w := range windows {
		out.attempted += w.requests
		for _, rep := range w.replies {
			if err := h.checkWarm(rep); err != nil {
				out.failCall("warm request: %v", err)
			}
		}
	}
	out.e2e = endToEnd(setup, in.plain)
	svc := &serviceInputs{
		cache:    total.cache,
		p50:      quantile(plain.p50s, 0.5),
		p90:      quantile(plain.p90s, 0.5),
		rejected: total.counters["serve.rejected_queue_full"] + total.counters["serve.rejected_draining"],
	}
	if cfg.traced {
		if svc.signature, svc.warmHit, err = h.timeCoreCalls(); err != nil {
			return nil, err
		}
	}
	in.svc = svc
	out.setLayers(in)
	return out, nil
}

// checkPrimed checks the priming rows against Fig. 4 and re-evaluates
// the cached design behind each. The priming request counts as one
// call.
func (h *harness) checkPrimed(out *outcome, refs map[string]string) {
	out.attempted++
	opts := servedOptions()
	for _, l := range workloads.All() {
		if err := h.checkPrimedLayer(l, refs, opts); err != nil {
			out.failCall("priming: %v", err)
			return
		}
	}
}

func (h *harness) checkPrimedLayer(l workloads.Layer, refs map[string]string, opts core.Options) error {
	row, ok := h.primed[l.Name()]
	if !ok {
		return fmt.Errorf("%s: no row", l.Name())
	}
	if err := checkRef(refs, l.Name(), "pJ/MAC", row.EnergyPerMAC); err != nil {
		return err
	}
	p, err := l.Problem()
	if err != nil {
		return err
	}
	res, ok := h.srv.Cache().Get(core.SolveSignature(p, opts))
	if !ok {
		return fmt.Errorf("%s: not in the cache", l.Name())
	}
	return checkDesign(p, res.Best)
}

// checkWarm fails a warm request answered with a status other than 200,
// or whose kept response does not carry its layer's primed row, served
// from the cache.
func (h *harness) checkWarm(rep reply) error {
	if err := replyErr(rep); err != nil {
		return fmt.Errorf("%s: %w", rep.Layer, err)
	}
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(rep.Body, &resp); err != nil {
		return err
	}
	if len(resp.Results) != 1 {
		return fmt.Errorf("%s: %d rows, want 1", rep.Layer, len(resp.Results))
	}
	row := resp.Results[0]
	if !row.FromCache {
		return fmt.Errorf("%s: not served from the cache", rep.Layer)
	}
	row.FromCache = false // as in the cold priming row
	if want := h.primed[rep.Layer]; row != want {
		return fmt.Errorf("row %+v, primed %+v", row, want)
	}
	return nil
}

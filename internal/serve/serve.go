// Package serve implements thistled, the long-running optimization
// service: an HTTP/JSON front end over the staged pipeline that turns
// the one-shot thistle CLI into a daemon serving many concurrent
// clients from one process.
//
// The production concerns are the point of the package:
//
//   - ONE cross-request pipeline.Scheduler bounds total leaf compute
//     (GP solves, integerization searches), so any number of concurrent
//     requests cannot oversubscribe the box;
//   - ONE shared content-addressed core.SolveCache spans requests:
//     same-signature solves from different clients coalesce onto a
//     single in-flight solve (singleflight) and later requests are
//     served from memory or the disk tier;
//   - admission control: at most MaxConcurrent requests execute while
//     up to QueueDepth wait; beyond that the server sheds load with
//     429 (queue full) or 503 (draining), both carrying Retry-After;
//   - per-request deadlines honor context cancellation end-to-end
//     through the pipeline (a dead request stops consuming scheduler
//     tokens at the next admission point);
//   - graceful drain: Drain stops admissions and waits for in-flight
//     requests, whose manifests are flushed as they finish.
//
// Every request gets a run ID and a thistle-manifest-v1 manifest;
// optionally a thistle-events-v1 stream and a thistle-trace-v1 Chrome
// trace, so tlreport show/diff/validate/trace work on server-side runs
// unchanged. See docs/API.md for the HTTP surface and
// docs/OPERATIONS.md for running it in production.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/loopnest"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/obs/timeseries"
	"repro/internal/pipeline"
	"repro/internal/specs"
	"repro/internal/workloads"
)

// Config sizes the server. Zero values select defaults; see each field.
type Config struct {
	// Parallel sizes the shared cross-request scheduler: the total
	// number of leaf compute jobs (GP solves, integerization searches)
	// in flight across ALL requests (0: NumCPU).
	Parallel int
	// MaxConcurrent bounds requests executing simultaneously
	// (0: NumCPU, min 2). More concurrency than Parallel does not add
	// compute — it adds coalescing: overlapping same-signature requests
	// singleflight onto one solve.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for an execution slot
	// (0: 64; negative: no queue, reject immediately when busy).
	QueueDepth int
	// DefaultDeadline applies when a request carries no deadline_ms
	// (0: 2m).
	DefaultDeadline time.Duration
	// MaxDeadline clamps client-requested deadlines (0: 10m).
	MaxDeadline time.Duration
	// RetryAfter is the hint returned with 429/503 (0: 1s).
	RetryAfter time.Duration
	// SpoolDir, when set, persists each request's run record on
	// completion: <run_id>.manifest.json always, plus .events.jsonl
	// and .trace.json when the request asked for them.
	SpoolDir string
	// Cache is the shared solve cache (nil: a private in-memory cache,
	// so coalescing works even without explicit configuration).
	Cache *core.SolveCache
	// Obs is the server-wide telemetry bundle. Its Metrics registry
	// backs /metrics and the serve.* gauges and histograms; its Log
	// receives request logs. Nil allocates a metrics-only bundle.
	Obs *obs.Obs
	// SLO configures availability/latency objective tracking (zero
	// value: 99% availability, 95% of requests under DefaultDeadline;
	// Availability < 0 disables tracking).
	SLO SLOConfig
	// SampleInterval is the /varz time-series sampling cadence
	// (0: 5s; negative: no background sampler — /varz still samples
	// on-demand at the default cadence).
	SampleInterval time.Duration
	// SampleWindow is how much history /varz retains (0: 30m).
	SampleWindow time.Duration
	// AccessLog, when set, receives one JSON line per optimize request
	// (subject to AccessLogSample; non-200 and slow requests always
	// log). Nil disables access logging.
	AccessLog io.Writer
	// AccessLogSample keeps 1 in N fast successful requests (≤1: all).
	AccessLogSample int
	// AccessLogSlow is the wall time beyond which a request always logs
	// (0: 1s).
	AccessLogSlow time.Duration
}

func (c Config) withDefaults() Config {
	if c.Parallel < 1 {
		c.Parallel = runtime.NumCPU()
	}
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = runtime.NumCPU()
		if c.MaxConcurrent < 2 {
			c.MaxConcurrent = 2
		}
	}
	if c.MaxConcurrent < 1 {
		c.MaxConcurrent = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 2 * time.Minute
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 10 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SampleInterval == 0 {
		c.SampleInterval = 5 * time.Second
	}
	if c.SampleWindow <= 0 {
		c.SampleWindow = 30 * time.Minute
	}
	if c.AccessLogSlow <= 0 {
		c.AccessLogSlow = time.Second
	}
	if c.Obs == nil {
		c.Obs = &obs.Obs{Metrics: obs.NewRegistry()}
	} else if c.Obs.Metrics == nil {
		c.Obs.Metrics = obs.NewRegistry()
	}
	if c.Cache == nil {
		c.Cache = core.NewSolveCache(cache.Options{Obs: c.Obs})
	}
	return c
}

// reqStatus is one finished (or running) request's /statusz row.
type reqStatus struct {
	RunID   string
	Summary string
	Outcome string // "running", "ok", or an error code
	Layers  int
	Wall    time.Duration
}

// Server is the thistled HTTP service. Build one with New, expose
// Handler on an http.Server, and call Drain before shutting down.
type Server struct {
	cfg       Config
	o         *obs.Obs
	sched     *pipeline.Scheduler
	cache     *core.SolveCache
	mux       *http.ServeMux
	handler   http.Handler // mux wrapped in the request-ID middleware
	start     time.Time
	collector *timeseries.Collector
	slo       *sloSet
	accessLog *accessLogger

	// Admission state: active holds one token per executing request;
	// queued counts requests waiting for a token.
	active   chan struct{}
	queued   atomic.Int64
	draining atomic.Bool
	inflight sync.WaitGroup

	// run executes one admitted work unit; swapped in tests for a
	// controllable stub.
	run func(ctx context.Context, req *OptimizeRequest, w *work) (*OptimizeResponse, *apiError)

	// Metric handles (nil-safe when the registry is off, which New
	// never produces — the service always has one).
	queueGauge  *obs.Gauge
	flightGauge *obs.Gauge
	latency     *obs.Histogram
	reqTotal    *obs.Counter
	reqOK       *obs.Counter
	reqErr      *obs.Counter
	rejQueue    *obs.Counter
	rejDrain    *obs.Counter
	deadlines   *obs.Counter

	mu      sync.Mutex
	recent  []reqStatus          // guarded by mu; newest first, capped
	details map[string]reqDetail // guarded by mu; request ID → access-log detail, taken on log
}

// New assembles a server from the config. The scheduler and cache it
// creates (or adopts) are shared by every request for the server's
// lifetime.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		o:      cfg.Obs,
		sched:  pipeline.NewScheduler(cfg.Parallel),
		cache:  cfg.Cache,
		start:  time.Now(),
		active: make(chan struct{}, cfg.MaxConcurrent),

		queueGauge:  cfg.Obs.Gauge("serve.queue_depth"),
		flightGauge: cfg.Obs.Gauge("serve.in_flight"),
		latency:     cfg.Obs.Histogram("serve.request.latency"),
		reqTotal:    cfg.Obs.Counter("serve.requests"),
		reqOK:       cfg.Obs.Counter("serve.requests_ok"),
		reqErr:      cfg.Obs.Counter("serve.requests_error"),
		rejQueue:    cfg.Obs.Counter("serve.rejected_queue_full"),
		rejDrain:    cfg.Obs.Counter("serve.rejected_draining"),
		deadlines:   cfg.Obs.Counter("serve.deadline_exceeded"),
	}
	s.run = s.runWork
	s.slo = newSLOSet(cfg.SLO, cfg.DefaultDeadline, nil)
	s.accessLog = newAccessLogger(cfg.AccessLog, cfg.AccessLogSample, cfg.AccessLogSlow)

	interval := cfg.SampleInterval
	background := interval > 0
	if !background {
		interval = 5 * time.Second
	}
	capacity := int(cfg.SampleWindow / interval)
	if capacity < 2 {
		capacity = 2
	}
	s.collector = timeseries.New(cfg.Obs.Metrics, timeseries.Options{Interval: interval, Capacity: capacity})
	if background {
		s.collector.Start()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/optimize", s.handleOptimize)
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/varz", s.handleVarz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintln(w, "thistled: POST /v1/optimize (optimize), /v1/healthz (health), /statusz (progress), /metrics (prometheus), /varz (time series)")
	})
	s.mux = mux
	s.handler = s.requestIDMiddleware(mux)
	return s
}

// Handler returns the service's HTTP handler: the mux wrapped in the
// request-ID middleware, so every response — including rejections and
// 404s — carries X-Request-ID.
func (s *Server) Handler() http.Handler { return s.handler }

// Close releases background resources (the /varz sampler). It does not
// drain; call Drain first for a graceful shutdown.
func (s *Server) Close() { s.collector.Stop() }

// Scheduler exposes the shared admission bound (for tests and stats).
func (s *Server) Scheduler() *pipeline.Scheduler { return s.sched }

// Cache exposes the shared solve cache (for tests and stats).
func (s *Server) Cache() *core.SolveCache { return s.cache }

// Drain stops admitting optimize requests (new ones get 503 and
// /v1/healthz reports draining) and waits for every in-flight request
// to finish — flushing its manifest — or for ctx to expire, whichever
// comes first. Idempotent; callers follow with http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	//tlvet:ignore goscheduler -- drain watcher: exits when the inflight WaitGroup drains; bounded by request lifecycle
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with requests in flight: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit implements admission control: it returns a release func once
// the request holds an execution slot, or the rejection to send. The
// bounded queue is the difference between "slow" and "down": requests
// beyond MaxConcurrent wait (counted in serve.queue_depth), requests
// beyond MaxConcurrent+QueueDepth are shed with 429 immediately.
func (s *Server) admit(ctx context.Context) (func(), *apiError) {
	if s.draining.Load() {
		s.rejDrain.Inc()
		return nil, &apiError{
			status: http.StatusServiceUnavailable, retryAfter: s.cfg.RetryAfter,
			Code: "draining", Message: "server is draining; retry against another replica",
		}
	}
	acquired := func() func() {
		s.inflight.Add(1)
		s.flightGauge.Add(1)
		return func() {
			<-s.active
			s.flightGauge.Add(-1)
			s.inflight.Done()
		}
	}
	select {
	case s.active <- struct{}{}:
		return acquired(), nil
	default:
	}
	if q := s.queued.Add(1); q > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.rejQueue.Inc()
		return nil, &apiError{
			status: http.StatusTooManyRequests, retryAfter: s.cfg.RetryAfter,
			Code: "queue_full", Message: fmt.Sprintf("request queue is full (%d executing, %d queued)", s.cfg.MaxConcurrent, s.cfg.QueueDepth),
		}
	}
	s.queueGauge.Add(1)
	defer func() {
		s.queued.Add(-1)
		s.queueGauge.Add(-1)
	}()
	select {
	case s.active <- struct{}{}:
		return acquired(), nil
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.deadlines.Inc()
			return nil, &apiError{
				status: http.StatusGatewayTimeout,
				Code:   "deadline_exceeded", Message: "deadline expired while queued",
			}
		}
		return nil, &apiError{
			status: http.StatusServiceUnavailable, retryAfter: s.cfg.RetryAfter,
			Code: "canceled", Message: "request canceled while queued",
		}
	}
}

// handleOptimize is POST /v1/optimize: decode, resolve, admit, run.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, &apiError{status: http.StatusMethodNotAllowed, Code: "method_not_allowed", Message: "use POST"})
		return
	}
	s.reqTotal.Inc()
	req, aerr := decodeRequest(r)
	if aerr != nil {
		s.reqErr.Inc()
		writeError(w, aerr)
		return
	}
	wk, aerr := resolve(req)
	if aerr != nil {
		s.reqErr.Inc()
		writeError(w, aerr)
		return
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	// The client closing the connection cancels r.Context(), so an
	// abandoned request stops consuming scheduler tokens at the next
	// admission point — same path as a deadline.
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	release, aerr := s.admit(ctx)
	if aerr != nil {
		s.reqErr.Inc()
		writeError(w, aerr)
		return
	}
	defer release()

	t0 := time.Now()
	resp, aerr := s.run(ctx, req, wk)
	wall := time.Since(t0)
	s.latency.Observe(wall)
	s.slo.observe(aerr == nil, wall)
	reqID := RequestIDFromContext(r.Context())

	if aerr != nil {
		s.reqErr.Inc()
		if aerr.Code == "deadline_exceeded" {
			s.deadlines.Inc()
		}
		s.record(reqStatus{Summary: wk.summary(), Outcome: aerr.Code, Wall: wall})
		s.noteDetail(reqID, reqDetail{code: aerr.Code, summary: wk.summary()})
		if s.o.Enabled(obs.Info) {
			s.o.Logf(obs.Info, "serve: %s -> %s (%s)", wk.summary(), aerr.Code, wall.Round(time.Millisecond))
		}
		writeError(w, aerr)
		return
	}
	s.reqOK.Inc()
	s.record(reqStatus{RunID: resp.RunID, Summary: wk.summary(), Outcome: "ok", Layers: len(resp.Results), Wall: wall})
	detail := reqDetail{runID: resp.RunID, summary: wk.summary(), layers: len(resp.Results)}
	if len(resp.Trace) > 0 {
		detail.traceID = obs.DeriveTraceID(traceSeed(reqID, resp.RunID))
	}
	s.noteDetail(reqID, detail)
	if s.o.Enabled(obs.Info) {
		s.o.Logf(obs.Info, "serve: %s -> ok run %s, %d layers (%s)", wk.summary(), resp.RunID, len(resp.Results), wall.Round(time.Millisecond))
	}
	writeJSON(w, http.StatusOK, resp)
}

// runWork executes one admitted request end to end: per-request run
// record and trace, shared scheduler and cache, spool on completion.
func (s *Server) runWork(ctx context.Context, req *OptimizeRequest, wk *work) (*OptimizeResponse, *apiError) {
	rec := events.NewRecorder("thistled", requestArgs(req, wk))
	// The middleware's request ID joins every record this run writes:
	// it lands verbatim in the manifest and run_start event, and seeds
	// the trace ID, so access-log lines, manifests, event streams, and
	// traces all correlate on the one key the client saw echoed.
	reqID := RequestIDFromContext(ctx)
	rec.SetRequestID(reqID)
	sinks := []obs.EventSink{rec}
	var evBuf bytes.Buffer
	var em *events.Emitter
	if req.Events {
		em = events.NewEmitter(&evBuf)
		sinks = append(sinks, em)
	}
	ro := &obs.Obs{
		Log: s.o.Log,
		// Shared registry: per-request pipeline/cache/solver metrics
		// aggregate into the service-wide /metrics surface.
		Metrics: s.o.Metrics,
		Events:  events.Multi(sinks...),
	}
	if req.Trace {
		ro.Tracer = obs.NewTracer()
		ro.Tracer.SetTraceID(obs.DeriveTraceID(traceSeed(reqID, rec.RunID())))
	}
	ro.Emit(obs.EvRunStart, rec.StartFields())

	rctx := obs.NewContext(ctx, ro)
	rctx = pipeline.ContextWithScheduler(rctx, s.sched)
	rctx = core.ContextWithCache(rctx, s.cache)

	var results []*core.Result
	var probs []*loopnest.Problem
	var err error
	if wk.prob != nil {
		probs = []*loopnest.Problem{wk.prob}
		var res *core.Result
		res, err = core.OptimizeContext(rctx, wk.prob, wk.opts)
		results = []*core.Result{res}
	} else {
		var perr error
		if probs, perr = workloads.Problems(wk.layers); perr != nil {
			return nil, &apiError{status: http.StatusInternalServerError, Code: "internal", Message: perr.Error()}
		}
		results, err = core.OptimizeLayers(rctx, probs, wk.opts)
	}
	if err != nil {
		return nil, optimizeError(ctx, err)
	}

	rows := make([]LayerOutcome, len(results))
	for i, res := range results {
		row, aerr := outcomeRow(probs[i], res, wk)
		if aerr != nil {
			return nil, aerr
		}
		rows[i] = row
	}

	// Finish the run record. The manifest carries the request's view of
	// the shared cache (service-lifetime counters), tying hit-ratio
	// telemetry to every audit record.
	man := rec.Finish(manifestCacheStats(s.cache.Stats()), nil)
	ro.Emit(obs.EvRunEnd, man.EndFields())
	manJSON, jerr := json.Marshal(man)
	if jerr != nil {
		return nil, &apiError{status: http.StatusInternalServerError, Code: "internal", Message: jerr.Error()}
	}
	resp := &OptimizeResponse{RunID: rec.RunID(), Results: rows, Manifest: manJSON}

	if em != nil {
		if cerr := em.Close(); cerr != nil {
			return nil, &apiError{status: http.StatusInternalServerError, Code: "internal", Message: cerr.Error()}
		}
		resp.EventsJSONL = evBuf.String()
	}
	if ro.Tracer != nil {
		meta := map[string]string{"tool": "thistled", "run_id": rec.RunID()}
		if reqID != "" {
			meta["request_id"] = reqID
		}
		if rev := events.BuildRevision(); rev != "" {
			meta["git_rev"] = rev
		}
		var tbuf bytes.Buffer
		if _, terr := ro.Tracer.WriteChromeTrace(&tbuf, meta); terr != nil {
			return nil, &apiError{status: http.StatusInternalServerError, Code: "internal", Message: terr.Error()}
		}
		resp.Trace = json.RawMessage(tbuf.Bytes())
	}

	s.spool(man, resp)
	return resp, nil
}

// outcomeRow renders one result row (and its optional spec bundle),
// stamping the solve signature the optimizer recorded on the result, so
// rows tie back to cache addressing without hashing the problem again.
func outcomeRow(p *loopnest.Problem, res *core.Result, wk *work) (LayerOutcome, *apiError) {
	dp := res.Best
	rep := dp.Report
	row := LayerOutcome{
		Problem:      p.Name,
		Sig:          res.Signature.Short(),
		PEs:          dp.Arch.PEs,
		Regs:         dp.Arch.Regs,
		SRAMWords:    dp.Arch.SRAM,
		EnergyPJ:     rep.Energy,
		EnergyPerMAC: rep.EnergyPerMAC,
		Cycles:       rep.Cycles,
		EDP:          rep.Energy * rep.Cycles,
		IPC:          rep.IPC,
		Utilization:  rep.Utilization,
		FromCache:    res.Stats.FromCache,
	}
	if wk.specs {
		nest, err := core.NestFor(p, dp)
		if err != nil {
			return row, &apiError{status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
		}
		bundle, err := specs.DesignBundle(p, &dp.Arch, nest, dp.Mapping)
		if err != nil {
			return row, &apiError{status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
		}
		row.SpecBundle = bundle
	}
	return row, nil
}

// optimizeError maps an optimize failure to the API error space.
func optimizeError(ctx context.Context, err error) *apiError {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || (ctx.Err() != nil && errors.Is(ctx.Err(), context.DeadlineExceeded)):
		return &apiError{status: http.StatusGatewayTimeout, Code: "deadline_exceeded", Message: "deadline expired mid-solve: " + err.Error()}
	case errors.Is(err, context.Canceled) || (ctx.Err() != nil && errors.Is(ctx.Err(), context.Canceled)):
		return &apiError{status: http.StatusServiceUnavailable, Code: "canceled", Message: "request canceled mid-solve"}
	case errors.Is(err, core.ErrNoDesign):
		return &apiError{status: http.StatusUnprocessableEntity, Code: "no_design", Message: err.Error()}
	default:
		return &apiError{status: http.StatusInternalServerError, Code: "internal", Message: err.Error()}
	}
}

// spool persists the request's run record under SpoolDir (best effort:
// a full disk must not fail the response that already computed).
func (s *Server) spool(man *events.Manifest, resp *OptimizeResponse) {
	dir := s.cfg.SpoolDir
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.o.Logf(obs.Warn, "serve: spool dir %s: %v", dir, err)
		return
	}
	base := filepath.Join(dir, man.RunID)
	if err := events.WriteManifest(base+".manifest.json", man); err != nil {
		s.o.Logf(obs.Warn, "serve: spool manifest: %v", err)
	}
	if resp.EventsJSONL != "" {
		if err := os.WriteFile(base+".events.jsonl", []byte(resp.EventsJSONL), 0o644); err != nil {
			s.o.Logf(obs.Warn, "serve: spool events: %v", err)
		}
	}
	if len(resp.Trace) > 0 {
		if err := os.WriteFile(base+".trace.json", append([]byte(nil), resp.Trace...), 0o644); err != nil {
			s.o.Logf(obs.Warn, "serve: spool trace: %v", err)
		}
	}
}

// manifestCacheStats mirrors cliutil's conversion (serve cannot import
// cliutil: the CLI runtime sits above the service layer).
func manifestCacheStats(st cache.Stats) *events.CacheStats {
	if st.Hits+st.Misses == 0 {
		return nil
	}
	return &events.CacheStats{
		Hits:              st.Hits,
		Misses:            st.Misses,
		DiskHits:          st.DiskHits,
		SingleflightWaits: st.SingleflightWaits,
		Stores:            st.Stores,
		Evictions:         st.Evictions,
		HitRate:           st.HitRate(),
	}
}

// record keeps the newest requests for /statusz.
func (s *Server) record(st reqStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recent = append([]reqStatus{st}, s.recent...)
	if len(s.recent) > 32 {
		s.recent = s.recent[:32]
	}
}

// handleHealthz is the load-balancer probe: 200 "ok" while serving,
// 503 "draining" once Drain has been called.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// traceSeed picks the trace-ID derivation seed: the client-correlatable
// request ID when the middleware assigned one, else the run ID (the
// pre-middleware behavior, still used by direct callers in tests).
func traceSeed(reqID, runID string) string {
	if reqID != "" {
		return reqID
	}
	return runID
}

// handleMetrics serves the shared registry in Prometheus text format —
// the same exporter the batch CLIs mount behind -status-addr — plus
// the thistle_slo_* objective families.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// Best effort below: the client may be gone mid-write.
	_ = s.o.Metrics.Snapshot().WritePrometheus(w)
	_ = s.slo.writePrometheus(w)
}

// varzResponse is the /varz body: the thistle-timeseries-v1 snapshot
// with the SLO block attached, which is everything cmd/tlmon renders.
type varzResponse struct {
	timeseries.Snapshot
	SLO []SLOStatus `json:"slo,omitempty"`
}

// handleVarz serves the sampled time-series state as JSON. A read
// samples on demand when the retained state is staler than one
// interval, so scripts probing a quiet server still see fresh data.
func (s *Server) handleVarz(w http.ResponseWriter, _ *http.Request) {
	s.collector.SampleIfStale()
	w.Header().Set("Content-Type", "application/json")
	resp := varzResponse{Snapshot: s.collector.Snapshot(), SLO: s.slo.statuses()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp) // best effort: the client may be gone
}

// handleStatusz renders the human-readable service page: uptime,
// admission state, request-latency quantiles, cache effectiveness,
// and the most recent requests.
func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	state := "serving"
	if s.draining.Load() {
		state = "draining"
	}
	fmt.Fprintf(w, "thistled %s, uptime %s\n", state, time.Since(s.start).Round(time.Second))
	fmt.Fprintf(w, "admission: %d executing (max %d), %d queued (max %d), scheduler width %d\n",
		len(s.active), s.cfg.MaxConcurrent, s.queued.Load(), s.cfg.QueueDepth, s.sched.Size())
	fmt.Fprintf(w, "requests: %d total, %d ok, %d errors (rejected: %d queue-full, %d draining)\n",
		s.reqTotal.Value(), s.reqOK.Value(), s.reqErr.Value(), s.rejQueue.Value(), s.rejDrain.Value())
	for _, h := range s.o.Metrics.Snapshot().Histograms {
		if h.Name == "serve.request.latency" && h.Count > 0 {
			fmt.Fprintf(w, "latency: p50 %s, p95 %s, p99 %s (mean %s over %d requests)\n",
				time.Duration(h.P50NS).Round(time.Microsecond),
				time.Duration(h.P95NS).Round(time.Microsecond),
				time.Duration(h.P99NS).Round(time.Microsecond),
				h.Mean().Round(time.Microsecond), h.Count)
		}
	}
	cs := s.cache.Stats()
	fmt.Fprintf(w, "cache: %d hits / %d misses (%.1f%% hit rate), %d entries, %d singleflight waits\n",
		cs.Hits, cs.Misses, 100*cs.HitRate(), cs.Entries, cs.SingleflightWaits)
	s.slo.writeStatusz(w)
	s.writeSparklines(w)

	s.mu.Lock()
	recent := append([]reqStatus(nil), s.recent...)
	s.mu.Unlock()
	if len(recent) == 0 {
		return
	}
	fmt.Fprintln(w, "\nrecent requests (newest first):")
	fmt.Fprintln(w, "run_id  outcome  layers  wall  request")
	for _, r := range recent {
		id := r.RunID
		if id == "" {
			id = "-"
		}
		fmt.Fprintf(w, "%s  %s  %d  %s  %s\n", id, r.Outcome, r.Layers, r.Wall.Round(time.Millisecond), r.Summary)
	}
}

// sparkWidth is how many trailing samples each /statusz sparkline shows
// (30 samples × the 5s default interval = 2.5 minutes of history).
const sparkWidth = 30

// writeSparklines renders the /varz series the eye wants on /statusz:
// request rate, p95 latency, queue depth, and cache hit rate over the
// sampler's recent history. Quiet until the sampler has ≥2 rounds.
func (s *Server) writeSparklines(w io.Writer) {
	s.collector.SampleIfStale()
	qps := timeseries.Tail(s.collector.Rates("serve.requests"), sparkWidth)
	if len(qps) < 2 {
		return
	}
	p95 := timeseries.Tail(s.collector.Values("serve.request.latency.p95_ms"), sparkWidth)
	queue := timeseries.Tail(s.collector.Values("serve.queue_depth"), sparkWidth)
	fmt.Fprintf(w, "\ntrends (last %d samples @ %s):\n", len(qps), s.collector.Interval())
	fmt.Fprintf(w, "  qps    %s  now %.2f/s\n", timeseries.Spark(qps), qps[len(qps)-1])
	if len(p95) > 0 {
		fmt.Fprintf(w, "  p95    %s  now %.1fms\n", timeseries.Spark(p95), p95[len(p95)-1])
	}
	if len(queue) > 0 {
		fmt.Fprintf(w, "  queue  %s  now %.0f\n", timeseries.Spark(queue), queue[len(queue)-1])
	}
	hits := timeseries.Tail(s.collector.Rates("cache.hit"), sparkWidth)
	misses := timeseries.Tail(s.collector.Rates("cache.miss"), sparkWidth)
	if ratios, ok := hitRatios(hits, misses); ok {
		fmt.Fprintf(w, "  cache  %s  now %.0f%% hit\n", timeseries.Spark(ratios), ratios[len(ratios)-1])
	}
}

// hitRatios derives a per-sample cache hit-rate series (percent) from
// aligned hit/miss rate series; samples with no traffic carry the
// previous ratio so the sparkline stays readable.
func hitRatios(hits, misses []float64) ([]float64, bool) {
	n := len(hits)
	if len(misses) < n {
		n = len(misses)
	}
	if n == 0 {
		return nil, false
	}
	// Align from the tail: both series sample the same rounds, but one
	// may have existed for more of them.
	hits = hits[len(hits)-n:]
	misses = misses[len(misses)-n:]
	out := make([]float64, n)
	prev := 0.0
	any := false
	for i := 0; i < n; i++ {
		total := hits[i] + misses[i]
		if total > 0 {
			prev = 100 * hits[i] / total
			any = true
		}
		out[i] = prev
	}
	return out, any
}

// writeJSON writes a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // best effort: the client may be gone
}

// writeError writes the error envelope, with Retry-After on load-shed
// responses so well-behaved clients back off a sensible amount.
func writeError(w http.ResponseWriter, aerr *apiError) {
	if aerr.retryAfter > 0 {
		secs := int(aerr.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, aerr.status, map[string]*apiError{"error": aerr})
}

package pipeline

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Scheduler is the run-wide admission bound for leaf compute jobs: GP
// solves and integerization searches acquire a token before running, so
// total CPU-bound concurrency stays at the configured width no matter
// how many layers, RS placements, and permutation pairs are in flight.
// Orchestration goroutines (per-layer, per-placement fan-out) never
// hold tokens — only leaf work does — so nesting cannot deadlock the
// semaphore.
//
// One scheduler is created per Optimize call (sized by
// Options.Parallel) unless the caller attached a shared one to the
// context with ContextWithScheduler; the whole-network batch
// core.OptimizeLayers does exactly that, which is what lets it
// submit every layer concurrently without oversubscribing CPUs.
// Admission telemetry: every Acquire observes its queue wait in the
// pipeline.sched.wait histogram, and two live gauges —
// pipeline.sched.queue_depth (goroutines blocked in Acquire) and
// pipeline.sched.in_flight (tokens held) — appear on /statusz and the
// Prometheus export like any other registry metric. Acquires that
// actually block additionally record a "sched-wait" child span under
// the context's current span, which is what lets tlreport trace
// attribute wall-clock to queueing rather than compute.
type Scheduler struct {
	sem chan struct{}
	// met caches the metric handles resolved from the first Acquire
	// context whose Obs has metrics enabled, so Release needs no context
	// and steady-state admission touches only atomics.
	met atomic.Pointer[schedMetrics]
}

// schedMetrics is the scheduler's resolved metric handle set.
type schedMetrics struct {
	wait       *obs.Histogram
	queueDepth *obs.Gauge
	inFlight   *obs.Gauge
}

// noSchedMetrics marks "resolution attempted, metrics disabled" so
// metric-less runs don't retry the registry lookup on every Acquire.
var noSchedMetrics = &schedMetrics{}

// metrics resolves (once) and returns the scheduler's metric handles,
// or nil when the run has no metrics registry. A shared scheduler first
// used by a metric-less run upgrades when a registry-bearing context
// shows up; all handle fields are nil-safe either way.
func (s *Scheduler) metrics(o *obs.Obs) *schedMetrics {
	m := s.met.Load()
	if m != nil && (m != noSchedMetrics || !o.MetricsEnabled()) {
		if m == noSchedMetrics {
			return nil
		}
		return m
	}
	if !o.MetricsEnabled() {
		s.met.CompareAndSwap(nil, noSchedMetrics)
		return nil
	}
	m = &schedMetrics{
		wait:       o.Histogram("pipeline.sched.wait"),
		queueDepth: o.Gauge("pipeline.sched.queue_depth"),
		inFlight:   o.Gauge("pipeline.sched.in_flight"),
	}
	s.met.Store(m)
	return m
}

// NewScheduler builds a scheduler admitting at most n concurrent jobs.
// n < 1 defaults to NumCPU.
func NewScheduler(n int) *Scheduler {
	if n < 1 {
		n = runtime.NumCPU()
	}
	return &Scheduler{sem: make(chan struct{}, n)}
}

// Size returns the admission bound.
func (s *Scheduler) Size() int {
	if s == nil {
		return 1
	}
	return cap(s.sem)
}

// Acquire blocks until a token is free or ctx is cancelled, recording
// queue-wait telemetry from the context's Obs: the wait duration always
// lands in the pipeline.sched.wait histogram (zero for uncontended
// admission), and an acquire that actually blocks also records a
// "sched-wait" child span under the context's current span. A nil
// scheduler admits immediately.
func (s *Scheduler) Acquire(ctx context.Context) error {
	if s == nil {
		return ctx.Err()
	}
	// Prefer reporting cancellation even when a token is also free.
	if err := ctx.Err(); err != nil {
		return err
	}
	o := obs.FromContext(ctx)
	m := s.metrics(o)
	select {
	case s.sem <- struct{}{}:
		// Uncontended fast path: no span — a trace flooded with
		// zero-length sched-wait spans would bury the signal.
		if m != nil {
			m.wait.Observe(0)
			m.inFlight.Add(1)
		}
		return nil
	default:
	}
	span := o.StartSpan(obs.SpanFromContext(ctx), "sched-wait")
	//tlvet:ignore wallclock -- telemetry: queue wait feeds the pipeline.sched.wait histogram and span attrs only
	start := time.Now()
	if m != nil {
		m.queueDepth.Add(1)
	}
	var err error
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		err = ctx.Err()
	}
	//tlvet:ignore wallclock -- telemetry: queue wait feeds the pipeline.sched.wait histogram and span attrs only
	wait := time.Since(start)
	if m != nil {
		m.queueDepth.Add(-1)
		m.wait.Observe(wait)
		if err == nil {
			m.inFlight.Add(1)
		}
	}
	if span != nil {
		span.SetAttr("wait_us", wait.Microseconds())
		span.End()
	}
	return err
}

// Release returns a token acquired with Acquire. Nil-safe.
func (s *Scheduler) Release() {
	if s == nil {
		return
	}
	<-s.sem
	if m := s.met.Load(); m != nil {
		m.inFlight.Add(-1)
	}
}

// ForEach runs fn(0..n-1), each call holding one scheduler token, and
// waits for every started call to finish. Admission honors context
// cancellation: no new job starts after ctx is cancelled or after any
// job returns an error (in-flight jobs run to completion). The returned
// error is deterministic regardless of completion order — the error of
// the lowest index that failed — except that a context cancellation
// observed at admission time is reported as ctx.Err() when no job
// failed first.
//
// A nil Scheduler runs the jobs sequentially on the calling goroutine,
// still honoring cancellation between jobs.
func (s *Scheduler) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if s == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		errIdx   = -1
		firstErr error
		stop     bool
	)
	record := func(i int, err error) {
		mu.Lock()
		if err != nil {
			stop = true
			if errIdx < 0 || i < errIdx {
				errIdx, firstErr = i, err
			}
		}
		mu.Unlock()
	}
	stopped := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return stop
	}
	var admitErr error
	for i := 0; i < n; i++ {
		if stopped() {
			break
		}
		if err := s.Acquire(ctx); err != nil {
			admitErr = err
			break
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer s.Release()
			record(i, fn(i))
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return admitErr
}

type schedCtxKey struct{}

// ContextWithScheduler attaches a shared scheduler to the context,
// where the pipeline (and the core facade) find it; per-call schedulers
// are then skipped, so every optimization submitted under the context
// draws from one admission bound. A nil scheduler returns the context
// unchanged.
func ContextWithScheduler(ctx context.Context, s *Scheduler) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, schedCtxKey{}, s)
}

// SchedulerFromContext returns the attached scheduler, or nil.
func SchedulerFromContext(ctx context.Context) *Scheduler {
	s, _ := ctx.Value(schedCtxKey{}).(*Scheduler)
	return s
}

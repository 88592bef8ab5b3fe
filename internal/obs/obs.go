// Package obs is the reproduction's observability layer: hierarchical
// wall-clock spans, a concurrency-safe metrics registry (counters,
// gauges, log-scale duration histograms), and a leveled logger, all
// stdlib-only. The optimizer core, the interior-point solver, and the
// randomized mapper call these hooks from hot goroutine loops, so every
// entry point is nil-safe: a nil *Obs (or any nil component) degrades to
// a no-op that performs no allocation, making disabled telemetry
// effectively free.
//
// The three components are bundled in Obs and travel either explicitly
// (solver.Options.Obs, mapper.Options.Obs) or via context
// (obs.NewContext / obs.StartSpan) through core.OptimizeContext.
package obs

import (
	"context"
	"fmt"
)

// Obs bundles the telemetry sinks. Any field (or the whole pointer)
// may be nil; every method treats that as "disabled".
type Obs struct {
	Log     *Logger
	Tracer  *Tracer
	Metrics *Registry
	// Events receives the structured run-event stream (run/layer/solve
	// lifecycle records); see internal/obs/events for the JSONL emitter
	// and the run-manifest recorder that implement it.
	Events EventSink
}

// EventSink consumes structured run events. Implementations must be
// safe for concurrent use: the solver and the core GP workers emit from
// parallel goroutines. A sink must not modify the payload.
type EventSink interface {
	Emit(ev Event)
}

// EventsEnabled reports whether an event sink is attached. Hot loops
// use it to skip building the payload entirely.
func (o *Obs) EventsEnabled() bool { return o != nil && o.Events != nil }

// Emit forwards one structured event to the attached sink, if any.
// Callers on hot paths should guard with EventsEnabled first to avoid
// allocating the payload.
func (o *Obs) Emit(ev Event) {
	if o == nil || o.Events == nil {
		return
	}
	o.Events.Emit(ev)
}

// Logger returns the logger component (nil when disabled).
func (o *Obs) Logger() *Logger {
	if o == nil {
		return nil
	}
	return o.Log
}

// Enabled reports whether the logger would emit at the given level.
func (o *Obs) Enabled(lvl Level) bool { return o.Logger().Enabled(lvl) }

// Logf emits a log line at the given level. Callers on hot paths should
// guard with Enabled first to avoid boxing the arguments.
func (o *Obs) Logf(lvl Level, format string, args ...any) {
	o.Logger().Logf(lvl, format, args...)
}

// TracingEnabled reports whether spans are being recorded. Hot loops use
// it to skip building span attributes entirely.
func (o *Obs) TracingEnabled() bool { return o != nil && o.Tracer != nil }

// MetricsEnabled reports whether a metrics registry is attached. Hot
// loops use it to skip formatting metric names.
func (o *Obs) MetricsEnabled() bool { return o != nil && o.Metrics != nil }

// StartSpan opens a span under parent (nil parent means a root span).
// Returns nil when tracing is disabled; the nil *Span is safe to use.
func (o *Obs) StartSpan(parent *Span, name string, attrs ...Attr) *Span {
	if o == nil || o.Tracer == nil {
		return nil
	}
	return o.Tracer.StartSpan(parent, name, attrs...)
}

// Counter returns the named counter, or a nil no-op when disabled.
func (o *Obs) Counter(name string) *Counter {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge, or a nil no-op when disabled.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram, or a nil no-op when disabled.
func (o *Obs) Histogram(name string) *Histogram {
	if o == nil || o.Metrics == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// Attr is one span attribute. Values should be JSON-marshalable
// primitives (string, int64, float64, bool).
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: int64(v)} }

// Int64 builds an integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float builds a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Stringer formats v lazily-ish; unlike String it accepts any value.
func Stringer(k string, v any) Attr { return Attr{Key: k, Value: fmt.Sprint(v)} }

type obsCtxKey struct{}
type spanCtxKey struct{}

// NewContext attaches the Obs bundle to a context.
func NewContext(ctx context.Context, o *Obs) context.Context {
	if o == nil {
		return ctx
	}
	return context.WithValue(ctx, obsCtxKey{}, o)
}

// FromContext returns the attached Obs bundle, or nil.
func FromContext(ctx context.Context) *Obs {
	o, _ := ctx.Value(obsCtxKey{}).(*Obs)
	return o
}

// ContextWithSpan records s as the current span of the context, making
// it the parent of subsequent StartSpan calls.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the current span of the context, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a span as a child of the context's current span (or a
// root span) and returns a derived context carrying the new span. When
// no tracer is attached the original context and a nil span are
// returned without allocating.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	o := FromContext(ctx)
	if o == nil || o.Tracer == nil {
		return ctx, nil
	}
	s := o.Tracer.StartSpan(SpanFromContext(ctx), name, attrs...)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

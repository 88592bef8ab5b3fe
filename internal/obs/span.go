package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer records a forest of hierarchical spans. It is safe for
// concurrent use; spans from worker goroutines may attach children to a
// shared parent. A nil *Tracer records nothing.
//
// Every recorded span carries a span ID (assigned from a per-tracer
// counter at creation, stable for the span's lifetime) and the tracer
// carries a trace ID shared by the whole forest. The trace ID is
// deterministically derived from the run's identity: callers that know
// the run ID (the CLI runtime does) set it with SetTraceID(DeriveTraceID
// (runID)); otherwise it is derived from the first root span's start
// time, so a given run always reports one stable ID.
type Tracer struct {
	mu    sync.Mutex
	roots []*Span // guarded by mu
	// now is the clock; overridable for tests.
	now     func() time.Time
	nextID  atomic.Int64
	traceID atomic.Pointer[string]
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{now: time.Now} }

// Clock replaces the tracer's time source. Tests use it to produce
// deterministic span timings (and therefore byte-identical serialized
// traces); call it before recording any spans.
func (t *Tracer) Clock(now func() time.Time) {
	if t == nil || now == nil {
		return
	}
	t.now = now
}

// DeriveTraceID maps an arbitrary run identity (e.g. the thistle-events
// run_id) onto a stable 16-hex-digit trace ID. The same seed always
// yields the same ID, which is what lets a trace file be correlated to
// the manifest and event stream of the run that produced it.
func DeriveTraceID(seed string) string {
	sum := sha256.Sum256([]byte(seed))
	return hex.EncodeToString(sum[:8])
}

// SetTraceID pins the tracer's trace ID (normally DeriveTraceID of the
// run ID). Only the first call wins, so a late default cannot overwrite
// the run-derived ID.
func (t *Tracer) SetTraceID(id string) {
	if t == nil || id == "" {
		return
	}
	t.traceID.CompareAndSwap(nil, &id)
}

// TraceID returns the tracer's trace ID, deriving (and pinning) one
// from the first root span's start time when none was set. An empty
// tracer with no set ID returns "".
func (t *Tracer) TraceID() string {
	if t == nil {
		return ""
	}
	if p := t.traceID.Load(); p != nil {
		return *p
	}
	t.mu.Lock()
	var epoch time.Time
	if len(t.roots) > 0 {
		epoch = t.roots[0].start
	}
	t.mu.Unlock()
	if epoch.IsZero() {
		return ""
	}
	t.SetTraceID(DeriveTraceID(epoch.UTC().Format(time.RFC3339Nano)))
	return *t.traceID.Load()
}

// StartSpan opens a span under parent; a nil parent makes a root span.
// The caller must End it.
func (t *Tracer) StartSpan(parent *Span, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tracer: t,
		name:   name,
		start:  t.now(),
		id:     t.nextID.Add(1),
		attrs:  append([]Attr(nil), attrs...),
	}
	if parent != nil {
		s.parent = parent
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
		return s
	}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Span is one timed region. All methods are nil-safe so disabled
// tracing costs a single nil check at each call site.
type Span struct {
	tracer *Tracer
	parent *Span // nil for roots
	name   string
	start  time.Time
	id     int64

	mu       sync.Mutex
	end      time.Time // guarded by mu
	attrs    []Attr    // guarded by mu
	children []*Span   // guarded by mu
}

// ID returns the span's creation-order identifier within its tracer
// (stable for the span's lifetime; 0 for a nil span). Creation order is
// scheduling-dependent under parallelism — serialized trace files use
// the canonical sorted-preorder IDs instead (see WriteChromeTrace).
func (s *Span) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// End stamps the span's end time. Ending twice keeps the first stamp.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = s.tracer.now()
	}
	s.mu.Unlock()
}

// SetAttr attaches (or appends) an attribute after span creation.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Annotate attaches several attributes at once.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// SpanInfo is an immutable snapshot of one recorded span.
type SpanInfo struct {
	Name string
	// ID is the span's creation-order identifier (see Span.ID).
	ID int64
	// StartUS is the span start as microseconds since the first recorded
	// span's start.
	StartUS int64
	// DurUS is the span duration in microseconds (-1 if never ended).
	DurUS    int64
	Attrs    map[string]any
	Children []SpanInfo
}

// Duration returns the span duration (0 if the span was never ended).
func (si SpanInfo) Duration() time.Duration {
	if si.DurUS < 0 {
		return 0
	}
	return time.Duration(si.DurUS) * time.Microsecond
}

// Tree snapshots the recorded span forest, in start order.
func (t *Tracer) Tree() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	roots := append([]*Span(nil), t.roots...)
	t.mu.Unlock()
	var epoch time.Time
	if len(roots) > 0 {
		epoch = roots[0].start
	}
	out := make([]SpanInfo, len(roots))
	for i, r := range roots {
		out[i] = r.snapshot(epoch)
	}
	return out
}

func (s *Span) snapshot(epoch time.Time) SpanInfo {
	s.mu.Lock()
	end := s.end
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	info := SpanInfo{
		Name:    s.name,
		ID:      s.id,
		StartUS: s.start.Sub(epoch).Microseconds(),
		DurUS:   -1,
	}
	if !end.IsZero() {
		info.DurUS = end.Sub(s.start).Microseconds()
	}
	if len(attrs) > 0 {
		info.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			info.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range children {
		info.Children = append(info.Children, c.snapshot(epoch))
	}
	return info
}

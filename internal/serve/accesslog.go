package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"
)

// RequestIDHeader is the header the server honors inbound and echoes on
// every response, error paths included. The same value lands in the
// run's manifest (request_id), its trace ID seed, and the access log —
// one key joins all four records.
const RequestIDHeader = "X-Request-ID"

// maxRequestIDLen bounds an inbound ID; longer values are truncated so
// a hostile client cannot bloat every record that carries the key.
const maxRequestIDLen = 64

type requestIDKey struct{}

// RequestIDFromContext returns the request ID the middleware assigned
// ("" outside a request).
func RequestIDFromContext(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// sanitizeRequestID keeps the charset that is safe in headers, JSON
// logs, and filenames ([A-Za-z0-9._-]); anything else is dropped. An
// inbound ID that sanitizes to empty is treated as absent.
func sanitizeRequestID(id string) string {
	if len(id) > maxRequestIDLen {
		id = id[:maxRequestIDLen]
	}
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			out = append(out, c)
		}
	}
	return string(out)
}

// newRequestID generates a server-assigned ID for requests that arrive
// without one.
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "req-000000000000"
	}
	return "req-" + hex.EncodeToString(b[:])
}

// accessRecord is the record of one /v1/optimize request.
// handleOptimize fills it on every exit path, and Server.finish derives
// the request's telemetry from it, its access-log line (the exported
// fields as JSON, one line per request) included.
type accessRecord struct {
	Time      string  `json:"ts"`
	RequestID string  `json:"request_id"`
	RunID     string  `json:"run_id,omitempty"`
	TraceID   string  `json:"trace_id,omitempty"` // set when the response carries a trace
	Remote    string  `json:"remote,omitempty"`
	Method    string  `json:"method"`
	Path      string  `json:"path"`
	Status    int     `json:"status"`
	Code      string  `json:"code,omitempty"` // API error code on failures
	Request   string  `json:"request,omitempty"`
	Layers    int     `json:"layers,omitempty"`
	WallMS    float64 `json:"wall_ms"` // since handler entry

	start time.Time     // handler entry
	ran   bool          // admitted and run
	wall  time.Duration // the run's wall time
}

// fail sends aerr as the request's response.
func (q *accessRecord) fail(w http.ResponseWriter, aerr *apiError) {
	q.Status, q.Code = aerr.status, aerr.Code
	writeError(w, aerr)
}

// accessLogger writes structured access logs, one line per record.
type accessLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func newAccessLogger(w io.Writer) *accessLogger {
	if w == nil {
		return nil
	}
	return &accessLogger{w: w}
}

// log writes one record. Nil-safe.
func (l *accessLogger) log(rec accessRecord) {
	if l == nil {
		return
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return
	}
	data = append(data, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, _ = l.w.Write(data) // best effort: logging must not fail requests
}

// requestIDMiddleware assigns (or adopts) the request ID, echoes it on
// the response before any handler writes, and stashes it in the
// context. Because it wraps the whole mux, rejection paths (405, 429,
// 503, 404) echo the ID too.
func (s *Server) requestIDMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := sanitizeRequestID(r.Header.Get(RequestIDHeader))
		if id == "" {
			id = newRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
	})
}

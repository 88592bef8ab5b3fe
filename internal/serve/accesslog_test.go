package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestSanitizeRequestID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc-123_x.y", "abc-123_x.y"},
		{"", ""},
		{"has spaces\tand\ncontrol", "hasspacesandcontrol"},
		{`"quoted"{json}`, "quotedjson"},
		{strings.Repeat("a", 100), strings.Repeat("a", 64)},
		{"héllo", "hllo"},
	}
	for _, tc := range cases {
		if got := sanitizeRequestID(tc.in); got != tc.want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNewRequestIDShape(t *testing.T) {
	a, b := newRequestID(), newRequestID()
	if !strings.HasPrefix(a, "req-") || len(a) != 16 {
		t.Fatalf("id %q, want req-<12 hex>", a)
	}
	if a == b {
		t.Fatalf("consecutive ids collide: %q", a)
	}
	if sanitizeRequestID(a) != a {
		t.Fatalf("generated id %q does not survive its own sanitizer", a)
	}
}

// logLines decodes every access-log line written so far.
func logLines(t *testing.T, buf *syncBuffer) []accessRecord {
	t.Helper()
	var out []accessRecord
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var rec accessRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad access-log line %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}

// syncBuffer is a mutex-guarded string buffer (the logger serializes
// writes, but tests read concurrently with the server).
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestAccessLoggerKeepAll(t *testing.T) {
	var buf syncBuffer
	l := newAccessLogger(&buf)
	for i := 0; i < 4; i++ {
		l.log(accessRecord{Status: 200, WallMS: 1})
	}
	if got := len(logLines(t, &buf)); got != 4 {
		t.Fatalf("kept %d of 4", got)
	}
}

func TestAccessLoggerNil(t *testing.T) {
	if l := newAccessLogger(nil); l != nil {
		t.Fatal("nil writer should produce nil logger")
	}
	var l *accessLogger
	l.log(accessRecord{Status: 500}) // must not panic
}

// TestAccessLogEveryRequest: every /v1/optimize request writes one
// access-log line, the ones refused before any work included, and the
// request counters count the POSTs among them.
func TestAccessLogEveryRequest(t *testing.T) {
	var buf syncBuffer
	srv := New(Config{AccessLog: &buf})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp, _ := postOptimize(t, ts, `{"layer": "nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown layer: status %d", resp.StatusCode)
	}
	lines := logLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("%d access-log lines, want 2:\n%s", len(lines), buf.String())
	}
	for i, want := range []struct {
		method, code string
		status       int
	}{
		{"GET", "method_not_allowed", http.StatusMethodNotAllowed},
		{"POST", "bad_request", http.StatusBadRequest},
	} {
		if l := lines[i]; l.Method != want.method || l.Status != want.status || l.Code != want.code || l.RequestID == "" || l.Path != "/v1/optimize" {
			t.Errorf("line %d = %+v, want %s %d %s", i, l, want.method, want.status, want.code)
		}
	}
	if got := srv.reqTotal.Value(); got != 1 {
		t.Errorf("serve.requests = %d, want 1 (the POST)", got)
	}
	if got := srv.reqErr.Value(); got != 1 {
		t.Errorf("serve.requests_error = %d, want 1", got)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/events"
)

// TestRequestIDJoinsAllRecords is the acceptance-criteria test: an
// inbound X-Request-ID must be echoed on the response and appear
// verbatim in the manifest, the run_start event, the trace metadata
// (with the trace ID derived from it), and the access log.
func TestRequestIDJoinsAllRecords(t *testing.T) {
	var logBuf syncBuffer
	srv := New(Config{AccessLog: &logBuf})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const reqID = "client-abc.123"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/optimize",
		strings.NewReader(tinyConv[:len(tinyConv)-1]+`, "trace": true, "events": true}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(RequestIDHeader); got != reqID {
		t.Fatalf("echoed id = %q, want %q", got, reqID)
	}

	var out OptimizeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}

	// Manifest carries the ID verbatim.
	var man events.Manifest
	if err := json.Unmarshal(out.Manifest, &man); err != nil {
		t.Fatal(err)
	}
	if man.RequestID != reqID {
		t.Fatalf("manifest request_id = %q, want %q", man.RequestID, reqID)
	}

	// run_start event carries it.
	var runStart struct {
		Fields struct {
			RequestID string `json:"request_id"`
		} `json:"fields"`
	}
	firstLine := out.EventsJSONL[:strings.IndexByte(out.EventsJSONL, '\n')]
	if err := json.Unmarshal([]byte(firstLine), &runStart); err != nil {
		t.Fatal(err)
	}
	if runStart.Fields.RequestID != reqID {
		t.Fatalf("run_start request_id = %q, want %q", runStart.Fields.RequestID, reqID)
	}

	// Trace metadata carries it verbatim and the trace ID derives from it.
	var trace struct {
		OtherData map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(out.Trace, &trace); err != nil {
		t.Fatal(err)
	}
	if trace.OtherData["request_id"] != reqID {
		t.Fatalf("trace request_id = %q, want %q", trace.OtherData["request_id"], reqID)
	}
	wantTraceID := obs.DeriveTraceID(reqID)
	if got := trace.OtherData["trace_id"]; got != wantTraceID {
		t.Fatalf("trace_id = %q, want DeriveTraceID(%q) = %q", got, reqID, wantTraceID)
	}

	// Access log joins on the same key and carries run and trace IDs.
	lines := logLines(t, &logBuf)
	if len(lines) != 1 {
		t.Fatalf("access log has %d lines, want 1:\n%s", len(lines), logBuf.String())
	}
	rec := lines[0]
	if rec.RequestID != reqID || rec.RunID != man.RunID || rec.TraceID != wantTraceID {
		t.Fatalf("access line = %+v, want request_id %q run %q trace %q", rec, reqID, man.RunID, wantTraceID)
	}
	if rec.Status != 200 || rec.Layers != 1 {
		t.Fatalf("access line = %+v", rec)
	}
}

// TestRequestIDOnErrorPaths asserts every response carries an ID —
// including the rejection paths that never reach the optimizer.
func TestRequestIDOnErrorPaths(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, QueueDepth: -1})
	defer srv.Close()
	st := installStub(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Generated when absent: 405 path.
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	gen := resp.Header.Get(RequestIDHeader)
	if !strings.HasPrefix(gen, "req-") {
		t.Fatalf("405 response id = %q, want generated req-…", gen)
	}

	// Echoed on 429 while the lone slot is held.
	done := make(chan struct{})
	go func() {
		defer close(done)
		postOptimize(t, ts, tinyConv)
	}()
	<-st.started
	req, _ := http.NewRequest("POST", ts.URL+"/v1/optimize", strings.NewReader(tinyConv))
	req.Header.Set(RequestIDHeader, "shed-me-1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp2.StatusCode)
	}
	if got := resp2.Header.Get(RequestIDHeader); got != "shed-me-1" {
		t.Fatalf("429 echoed id = %q, want shed-me-1", got)
	}
	close(st.release)
	<-done

	// Hostile inbound IDs are sanitized, not echoed raw.
	req3, _ := http.NewRequest("POST", ts.URL+"/v1/optimize", strings.NewReader(tinyConv))
	req3.Header.Set(RequestIDHeader, "ok{bad}chars")
	resp3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if got := resp3.Header.Get(RequestIDHeader); got != "okbadchars" {
		t.Fatalf("sanitized echo = %q, want okbadchars", got)
	}
}

// TestMetricsExpositionValid validates the live /metrics payload against
// the exposition grammar and checks no thistle_slo_* family is exported.
func TestMetricsExpositionValid(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, data := postOptimize(t, ts, tinyConv); resp.StatusCode != 200 {
		t.Fatalf("optimize failed: %s", data)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := obs.ValidateExposition(bytes.NewReader(data)); err != nil {
		t.Fatalf("live /metrics invalid: %v", err)
	}
	if strings.Contains(string(data), "thistle_slo_") {
		t.Errorf("/metrics still exports SLO families:\n%s", data)
	}
	if !strings.Contains(string(data), "# HELP thistle_serve_requests_total") {
		t.Errorf("/metrics missing thistle_serve_requests_total HELP line")
	}
}

// TestStatuszRecentRingConcurrent hammers the recent-request ring from
// many writers while readers render /statusz — the race gate covers it.
func TestStatuszRecentRingConcurrent(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				srv.record(reqStatus{
					RunID:   fmt.Sprintf("run-%d-%d", w, i),
					Summary: "load",
					Outcome: "ok",
					Layers:  1,
					Wall:    time.Duration(i) * time.Microsecond,
				})
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rr := httptest.NewRecorder()
				req := httptest.NewRequest("GET", "/statusz", nil)
				srv.Handler().ServeHTTP(rr, req)
				if rr.Code != 200 {
					t.Errorf("statusz status = %d", rr.Code)
					return
				}
			}
		}()
	}
	wg.Wait()

	srv.mu.Lock()
	n := len(srv.recent)
	srv.mu.Unlock()
	if n != 32 {
		t.Fatalf("ring holds %d entries, want cap 32", n)
	}
}

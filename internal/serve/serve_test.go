package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/specs"
	"repro/internal/yamlite"
)

// tinyConv is the small problem every solving test uses: cold solve in
// tens of milliseconds, so the suite stays -short friendly.
const tinyConv = `{"conv": {"k": 8, "c": 8, "h": 4, "r": 2}}`

func postOptimize(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/optimize: %v", err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, data
}

func decodeOK(t *testing.T, resp *http.Response, data []byte) *OptimizeResponse {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body: %s", resp.StatusCode, data)
	}
	var out OptimizeResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &out
}

func errorCode(t *testing.T, data []byte) string {
	t.Helper()
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding error envelope: %v (body: %s)", err, data)
	}
	return env.Error.Code
}

func TestOptimizeEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postOptimize(t, ts, tinyConv)
	out := decodeOK(t, resp, data)
	if out.RunID == "" {
		t.Error("response missing run_id")
	}
	if len(out.Results) != 1 {
		t.Fatalf("got %d result rows, want 1", len(out.Results))
	}
	row := out.Results[0]
	if row.Problem != "conv_k8_c8_h4_r2" {
		t.Errorf("problem = %q", row.Problem)
	}
	if row.EnergyPJ <= 0 || row.Cycles <= 0 || row.EDP <= 0 {
		t.Errorf("implausible result row: %+v", row)
	}
	if row.Sig == "" {
		t.Error("result row missing solve signature")
	}
	if row.FromCache {
		t.Error("cold solve marked from_cache")
	}

	var man struct {
		Schema string `json:"schema"`
		RunID  string `json:"run_id"`
		Tool   string `json:"tool"`
		Layers []struct {
			Name string `json:"name"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(out.Manifest, &man); err != nil {
		t.Fatalf("decoding manifest: %v", err)
	}
	if man.Schema != "thistle-manifest-v1" {
		t.Errorf("manifest schema = %q", man.Schema)
	}
	if man.RunID != out.RunID {
		t.Errorf("manifest run_id %q != response run_id %q", man.RunID, out.RunID)
	}
	if man.Tool != "thistled" {
		t.Errorf("manifest tool = %q", man.Tool)
	}
	if len(man.Layers) != 1 || man.Layers[0].Name != "conv_k8_c8_h4_r2" {
		t.Errorf("manifest layers = %+v", man.Layers)
	}

	// Second identical request: served from the shared cache.
	resp, data = postOptimize(t, ts, tinyConv)
	out = decodeOK(t, resp, data)
	if !out.Results[0].FromCache {
		t.Error("repeated request not served from cache")
	}
	if st := srv.Cache().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats after repeat: %+v", st)
	}
}

func TestOptimizeTraceAndEvents(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postOptimize(t, ts, `{"conv": {"k": 8, "c": 8, "h": 4, "r": 2}, "trace": true, "events": true}`)
	out := decodeOK(t, resp, data)
	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
		OtherData   map[string]string `json:"otherData"`
	}
	if err := json.Unmarshal(out.Trace, &trace); err != nil {
		t.Fatalf("decoding trace: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Error("trace has no events")
	}
	if got := trace.OtherData["schema"]; got != "thistle-trace-v1" {
		t.Errorf("trace schema = %q", got)
	}
	if got := trace.OtherData["run_id"]; got != out.RunID {
		t.Errorf("trace run_id = %q, want %q", got, out.RunID)
	}
	if out.EventsJSONL == "" {
		t.Fatal("no events stream returned")
	}
	first := strings.SplitN(out.EventsJSONL, "\n", 2)[0]
	if !strings.Contains(first, `"thistle-events-v1"`) || !strings.Contains(first, `"run_start"`) {
		t.Errorf("events stream does not start with a schema-tagged run_start: %s", first)
	}
	if !strings.Contains(out.EventsJSONL, `"run_end"`) {
		t.Error("events stream missing run_end")
	}
}

func TestBadRequests(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"no selector", `{}`, 400, "bad_request"},
		{"two selectors", `{"layer": "resnet18_L1", "pipeline": "resnet18"}`, 400, "bad_request"},
		{"unknown field", `{"layer": "resnet18_L1", "bogus": 1}`, 400, "bad_request"},
		{"unknown layer", `{"layer": "vgg16_L1"}`, 400, "bad_request"},
		{"unknown pipeline", `{"pipeline": "vgg16"}`, 400, "bad_request"},
		{"bad criterion", tinyConv[:len(tinyConv)-1] + `, "criterion": "power"}`, 400, "bad_request"},
		{"bad mode", tinyConv[:len(tinyConv)-1] + `, "mode": "auto"}`, 400, "bad_request"},
		{"negative deadline", tinyConv[:len(tinyConv)-1] + `, "deadline_ms": -1}`, 400, "bad_request"},
		{"malformed json", `{"layer": `, 400, "bad_request"},
		{"trailing document", `{"layer": "resnet18_L1"} {"layer": "resnet18_L2"}`, 400, "bad_request"},
		{"bad problem yaml", `{"problem_yaml": "not: a: problem"}`, 400, "bad_request"},
		{"bad conv shape", `{"conv": {"k": 0, "c": 8, "h": 4, "r": 2}}`, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := postOptimize(t, ts, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, tc.status, data)
			}
			if code := errorCode(t, data); code != tc.code {
				t.Errorf("error code = %q, want %q", code, tc.code)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/optimize status = %d, want 405", resp.StatusCode)
	}
}

func TestDeadlineExceededMidSolve(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A 1 ms deadline expires before any real solve finishes; the
	// cancellation must propagate through the pipeline and come back as
	// 504, not hang or 500.
	resp, data := postOptimize(t, ts, `{"layer": "resnet18_L1", "deadline_ms": 1}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body: %s", resp.StatusCode, data)
	}
	if code := errorCode(t, data); code != "deadline_exceeded" {
		t.Errorf("error code = %q, want deadline_exceeded", code)
	}
}

// blockingStub swaps the server's run hook for one that parks until
// released, making admission states (queue full, draining) deterministic.
type blockingStub struct {
	started chan string   // receives one value per stub invocation
	release chan struct{} // closed (or sent to) to let invocations finish
}

func installStub(srv *Server) *blockingStub {
	st := &blockingStub{started: make(chan string, 16), release: make(chan struct{})}
	srv.run = func(ctx context.Context, req *OptimizeRequest, w *work) (*OptimizeResponse, *apiError) {
		st.started <- w.desc
		select {
		case <-st.release:
		case <-ctx.Done():
			return nil, &apiError{status: http.StatusGatewayTimeout, Code: "deadline_exceeded", Message: ctx.Err().Error()}
		}
		return &OptimizeResponse{RunID: "stub", Manifest: json.RawMessage(`{}`)}, nil
	}
	return st
}

func TestQueueFull429(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, QueueDepth: -1, RetryAfter: 7 * time.Second})
	st := installStub(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, data := postOptimize(t, ts, tinyConv)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("first request status = %d; body: %s", resp.StatusCode, data)
		}
	}()
	<-st.started // the only slot is now held

	resp, data := postOptimize(t, ts, tinyConv)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429; body: %s", resp.StatusCode, data)
	}
	if code := errorCode(t, data); code != "queue_full" {
		t.Errorf("error code = %q, want queue_full", code)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want \"7\"", ra)
	}

	close(st.release)
	<-done

	// With the slot free again, requests are admitted once more.
	resp, data = postOptimize(t, ts, tinyConv)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release request status = %d; body: %s", resp.StatusCode, data)
	}
}

func TestQueuedRequestAdmittedAfterRelease(t *testing.T) {
	srv := New(Config{MaxConcurrent: 1, QueueDepth: 4})
	st := installStub(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			resp, data := postOptimize(t, ts, tinyConv)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status = %d; body: %s", resp.StatusCode, data)
			}
		}()
	}
	// Both requests eventually run: the first immediately, the second
	// after queuing for the released slot.
	<-st.started
	close(st.release)
	<-st.started
	wg.Wait()
}

func TestSingleflightCoalescing(t *testing.T) {
	srv := New(Config{MaxConcurrent: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 4
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			resp, data := postOptimize(t, ts, tinyConv)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d status = %d; body: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = data
		}(i)
	}
	wg.Wait()

	// However the n identical requests interleaved, the underlying
	// solve ran exactly once: one miss+store, n-1 hits (singleflight
	// waits if they overlapped the solve, memory hits if they trailed it).
	st := srv.Cache().Stats()
	if st.Misses != 1 || st.Stores != 1 {
		t.Errorf("cache ran the solve %d times (stores %d), want exactly 1: %+v", st.Misses, st.Stores, st)
	}
	if st.Hits != n-1 {
		t.Errorf("cache hits = %d, want %d: %+v", st.Hits, n-1, st)
	}

	// And every response carries the same design point.
	var want OptimizeResponse
	if err := json.Unmarshal(bodies[0], &want); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		var got OptimizeResponse
		if err := json.Unmarshal(bodies[i], &got); err != nil {
			t.Fatal(err)
		}
		wj, _ := json.Marshal(want.Results[0].EDP)
		gj, _ := json.Marshal(got.Results[0].EDP)
		if !bytes.Equal(wj, gj) {
			t.Errorf("request %d EDP %s != request 0 EDP %s", i, gj, wj)
		}
	}
}

// TestServerMatchesCLI proves the service path (JSON request → resolve →
// shared scheduler/cache → response) returns byte-identical per-layer
// results to the library path the thistle CLI drives with its default
// flags.
func TestServerMatchesCLI(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postOptimize(t, ts, tinyConv)
	out := decodeOK(t, resp, data)

	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "conv_k8_c8_h4_r2", N: 1, K: 8, C: 8, H: 4, W: 4, R: 2, S: 2,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Eyeriss()
	res, err := core.Optimize(p, core.Options{Arch: &a, Criterion: model.MinEnergy, Mode: core.FixedArch})
	if err != nil {
		t.Fatal(err)
	}
	dp := res.Best
	want := LayerOutcome{
		Problem:      p.Name,
		Sig:          core.SolveSignature(p, core.Options{Arch: &a}).Short(),
		PEs:          dp.Arch.PEs,
		Regs:         dp.Arch.Regs,
		SRAMWords:    dp.Arch.SRAM,
		EnergyPJ:     dp.Report.Energy,
		EnergyPerMAC: dp.Report.EnergyPerMAC,
		Cycles:       dp.Report.Cycles,
		EDP:          dp.Report.Energy * dp.Report.Cycles,
		IPC:          dp.Report.IPC,
		Utilization:  dp.Report.Utilization,
	}
	// Byte-identical: compare the JSON serializations, which preserve
	// full float precision.
	wj, _ := json.Marshal(want)
	gj, _ := json.Marshal(out.Results[0])
	if !bytes.Equal(wj, gj) {
		t.Errorf("server row differs from CLI-equivalent row:\nserver: %s\ncli:    %s", gj, wj)
	}
}

// TestRowSigIsCacheKey: for every selector that reaches the optimizer,
// each row's sig is the short form of the signature its result is
// cached under, on the cold request and on the warm repeat. The layers
// request names one layer twice, so a deduplicated row is checked too.
func TestRowSigIsCacheKey(t *testing.T) {
	yamlBody, err := json.Marshal(OptimizeRequest{ProblemYAML: yamlite.Encode(specs.FromProblem(loopnest.MatMul(8, 8, 8)))})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, body string }{
		{"layer", `{"layer": "resnet18_L11"}`},
		{"layers", `{"layers": ["resnet18_L8", "resnet18_L11", "resnet18_L8"]}`},
		{"conv", tinyConv},
		{"problem_yaml", string(yamlBody)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var req OptimizeRequest
			if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
				t.Fatal(err)
			}
			wk, aerr := resolve(&req)
			if aerr != nil {
				t.Fatal(aerr.Message)
			}
			probs := []*loopnest.Problem{wk.prob}
			if wk.prob == nil {
				probs = probs[:0]
				for _, l := range wk.layers {
					p, err := l.Problem()
					if err != nil {
						t.Fatal(err)
					}
					probs = append(probs, p)
				}
			}
			srv := New(Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			for _, pass := range []string{"cold", "warm"} {
				resp, data := postOptimize(t, ts, tc.body)
				out := decodeOK(t, resp, data)
				if len(out.Results) != len(probs) {
					t.Fatalf("%s: %d rows, want %d", pass, len(out.Results), len(probs))
				}
				for i, row := range out.Results {
					sig := core.SolveSignature(probs[i], wk.opts)
					if row.Sig != sig.Short() {
						t.Errorf("%s row %d (%s): sig %q, want %q", pass, i, row.Problem, row.Sig, sig.Short())
					}
					if _, ok := srv.Cache().Get(sig); !ok {
						t.Errorf("%s row %d (%s): nothing cached under its signature", pass, i, row.Problem)
					}
					if pass == "warm" && !row.FromCache {
						t.Errorf("warm row %d (%s) not served from the cache", i, row.Problem)
					}
				}
			}
		})
	}
}

func TestSpecBundleRequest(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postOptimize(t, ts, tinyConv[:len(tinyConv)-1]+`, "specs": true}`)
	out := decodeOK(t, resp, data)
	sb := out.Results[0].SpecBundle
	if !strings.Contains(sb, "problem:") || !strings.Contains(sb, "architecture:") || !strings.Contains(sb, "mapping:") {
		t.Errorf("spec bundle missing sections:\n%s", sb)
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(data)
	}

	if code, body := get("/v1/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Errorf("healthz = %d %q", code, body)
	}
	// One real request so the metric families exist.
	if resp, data := postOptimize(t, ts, tinyConv); resp.StatusCode != 200 {
		t.Fatalf("optimize failed: %s", data)
	}
	code, body := get("/metrics")
	if code != 200 {
		t.Fatalf("metrics status = %d", code)
	}
	for _, want := range []string{
		"thistle_serve_requests_total 1",
		"thistle_serve_requests_ok_total 1",
		"thistle_serve_in_flight 0",
		"thistle_serve_queue_depth 0",
		"thistle_serve_request_latency",
		"thistle_cache_miss_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	code, body = get("/statusz")
	if code != 200 {
		t.Fatalf("statusz status = %d", code)
	}
	for _, want := range []string{"thistled serving", "admission:", "latency: p50", "cache:", "recent requests"} {
		if !strings.Contains(body, want) {
			t.Errorf("/statusz missing %q in:\n%s", want, body)
		}
	}
}

func TestSpoolDir(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{SpoolDir: dir})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, data := postOptimize(t, ts, `{"conv": {"k": 8, "c": 8, "h": 4, "r": 2}, "trace": true, "events": true}`)
	out := decodeOK(t, resp, data)
	for _, suffix := range []string{".manifest.json", ".events.jsonl", ".trace.json"} {
		path := fmt.Sprintf("%s/%s%s", dir, out.RunID, suffix)
		if _, err := os.ReadFile(path); err != nil {
			t.Errorf("spooled %s unreadable: %v", suffix, err)
		}
	}
}

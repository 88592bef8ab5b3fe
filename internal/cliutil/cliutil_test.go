package cliutil

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/obs/tracefile"
)

// parseFlags registers the shared block on a fresh FlagSet and parses
// args, mirroring what each CLI's main does.
func parseFlags(t *testing.T, args ...string) *Flags {
	t.Helper()
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &f
}

// TestRuntimeAllOff: with no flags the runtime is the zero-overhead
// fast path — nil Obs, nil cache — yet every lifecycle method still
// works.
func TestRuntimeAllOff(t *testing.T) {
	f := parseFlags(t)
	rt, err := f.Setup("test", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Obs != nil {
		t.Fatalf("all-off runtime has Obs %v", rt.Obs)
	}
	c := OpenCache[int](rt, "test")
	if c != nil {
		t.Fatalf("all-off runtime has cache %v", c)
	}
	if rt.ShowCacheStats() {
		t.Fatal("ShowCacheStats true without -cache-stats")
	}
	var out bytes.Buffer
	if err := rt.Finish(&out, c.Stats()); err != nil {
		t.Fatal(err)
	}
}

// TestRuntimeFullStack wires every feature at once — verbosity,
// metrics, cache, events, manifest — and checks the pieces land where
// the CLIs expect them: a shared Obs with metrics on, a working cache,
// an events file with run_start/run_end, and a manifest that folds in
// the cache counters.
func TestRuntimeFullStack(t *testing.T) {
	dir := t.TempDir()
	eventsPath := filepath.Join(dir, "events.jsonl")
	manifestPath := filepath.Join(dir, "manifest.json")
	var warn bytes.Buffer
	f := parseFlags(t,
		"-v", "warn", "-metrics",
		"-cache", "-cache-stats",
		"-events", eventsPath, "-manifest", manifestPath,
	)
	rt, err := f.Setup("test", []string{"-arg"}, &warn)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Obs == nil || !rt.Obs.MetricsEnabled() || !rt.Obs.EventsEnabled() {
		t.Fatal("full-stack runtime missing obs features")
	}
	if !rt.ShowCacheStats() {
		t.Fatal("ShowCacheStats false with -cache-stats")
	}
	c := OpenCache[int](rt, "test")
	if c == nil {
		t.Fatal("cache not built despite -cache")
	}
	key := cache.Key{Component: "test", Params: []cache.Param{cache.ParamInt("k", 1)}}
	v, hit, err := c.Do(key.Signature(), func() (int, error) { return 42, nil })
	if err != nil || v != 42 || hit {
		t.Fatalf("cache Do = %v, hit=%v, %v", v, hit, err)
	}
	if v, hit, _ = c.Do(key.Signature(), func() (int, error) { return 0, nil }); v != 42 || !hit {
		t.Fatalf("cache hit = %v (hit=%v), want 42", v, hit)
	}
	var metricsOut bytes.Buffer
	if err := rt.Finish(&metricsOut, c.Stats()); err != nil {
		t.Fatal(err)
	}
	rt.Close()

	raw, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	stream := string(raw)
	for _, ev := range []string{"run_start", "run_end"} {
		if !strings.Contains(stream, ev) {
			t.Errorf("event stream missing %s:\n%s", ev, stream)
		}
	}
	var manifest struct {
		Tool  string `json:"tool"`
		Cache *struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
	}
	mraw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(mraw, &manifest); err != nil {
		t.Fatal(err)
	}
	if manifest.Tool != "test" {
		t.Errorf("manifest tool = %q", manifest.Tool)
	}
	if manifest.Cache == nil || manifest.Cache.Hits != 1 || manifest.Cache.Misses != 1 {
		t.Errorf("manifest cache stats = %+v, want 1 hit / 1 miss", manifest.Cache)
	}
	if warn.Len() != 0 {
		t.Errorf("unexpected warnings: %s", warn.String())
	}
}

// TestTraceOut wires -trace-out (plus -events so a run ID exists) and
// checks Finish writes a Chrome trace that the tracefile reader
// accepts, with the trace ID derived from the run ID and the runtime
// metadata (tool, run_id) in otherData.
func TestTraceOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	f := parseFlags(t, "-trace-out", tracePath, "-events", eventsPath)
	rt, err := f.Setup("test", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Obs == nil || rt.Obs.Tracer == nil {
		t.Fatal("-trace-out did not enable the tracer")
	}
	runID := f.Events.Recorder().RunID()
	if runID == "" {
		t.Fatal("no run ID despite -events")
	}
	if got := rt.Obs.Tracer.TraceID(); got != obs.DeriveTraceID(runID) {
		t.Fatalf("trace ID %q not derived from run ID %q", got, runID)
	}

	root := rt.Obs.StartSpan(nil, "optimize")
	child := rt.Obs.StartSpan(root, "stage:solve")
	child.End()
	root.End()
	if err := rt.Finish(io.Discard, cache.Stats{}); err != nil {
		t.Fatal(err)
	}
	rt.Close()

	raw, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	trc, err := tracefile.Read(raw)
	if err != nil {
		t.Fatalf("trace file unreadable: %v", err)
	}
	if trc.TraceID() != obs.DeriveTraceID(runID) {
		t.Fatalf("serialized trace ID = %q", trc.TraceID())
	}
	if trc.Meta["tool"] != "test" || trc.Meta["run_id"] != runID {
		t.Fatalf("trace meta = %v", trc.Meta)
	}
	if len(trc.Spans) != 2 || trc.Roots[0].Name != "optimize" {
		t.Fatalf("trace spans = %+v", trc.Spans)
	}
}

// TestVersionFlag: -version is recognized by the shared block and
// HandleVersion prints the stamped revision exactly once.
func TestVersionFlag(t *testing.T) {
	var out bytes.Buffer
	f := parseFlags(t)
	if f.HandleVersion("test", &out) || out.Len() != 0 {
		t.Fatal("HandleVersion fired without -version")
	}
	f = parseFlags(t, "-version")
	if !f.HandleVersion("test", &out) {
		t.Fatal("HandleVersion ignored -version")
	}
	got := strings.TrimSpace(out.String())
	if got != VersionString("test") || !strings.HasPrefix(got, "test ") {
		t.Fatalf("version line = %q", got)
	}
	if len(got) <= len("test ") {
		t.Fatal("version line carries no revision")
	}
}

package repro

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/floats"
	"repro/internal/model"
	"repro/internal/obs/events"
	"repro/internal/obs/tracefile"
	"repro/internal/workloads"
)

// buildCmds compiles the repository's command-line tools once per test
// binary into a shared temp dir.
func buildCmds(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"thistle", "tlmapper", "tlmodel", "experiments", "tlreport"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
	}
	return dir
}

// TestCLIEndToEnd drives the full toolchain: thistle optimizes a layer
// and emits a spec bundle; tlmodel re-evaluates the bundle and must
// report the same energy; tlmapper searches the same layer; experiments
// renders the static tables.
func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := buildCmds(t)
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// thistle on a small layer with specs and code emission.
	out := run("thistle", "-layer", "resnet18_L12", "-code")
	for _, want := range []string{"pJ/MAC", "--- spec bundle ---", "--- tiled loop nest ---", "copy_in("} {
		if !strings.Contains(out, want) {
			t.Fatalf("thistle output missing %q:\n%s", want, out)
		}
	}
	// Extract the bundle and feed it to tlmodel.
	idx := strings.Index(out, "--- spec bundle ---")
	end := strings.Index(out, "--- tiled loop nest ---")
	bundle := out[idx+len("--- spec bundle ---\n") : end]
	bundlePath := filepath.Join(t.TempDir(), "bundle.yaml")
	if err := os.WriteFile(bundlePath, []byte(bundle), 0o644); err != nil {
		t.Fatal(err)
	}
	mout := run("tlmodel", "-bundle", bundlePath)
	if !strings.Contains(mout, "constraints:   ok") {
		t.Fatalf("tlmodel rejected the thistle design:\n%s", mout)
	}
	// The pJ/MAC figures must agree between the two tools.
	thistlePJ := extractBetween(t, out, "energy:       ", " pJ/MAC")
	modelPJ := extractBetween(t, mout, "pJ (", " pJ/MAC)")
	if thistlePJ != modelPJ {
		t.Fatalf("thistle pJ/MAC %q != tlmodel %q", thistlePJ, modelPJ)
	}

	// tlmapper quick search.
	sout := run("tlmapper", "-layer", "resnet18_L12", "-threads", "2",
		"-trials", "500", "-victory", "200", "-specs")
	if !strings.Contains(sout, "best energy:") || !strings.Contains(sout, "target: DRAM") {
		t.Fatalf("tlmapper output:\n%s", sout)
	}

	// experiments static tables.
	eout := run("experiments", "-exp", "table2,table3")
	if !strings.Contains(eout, "resnet18_L1") || !strings.Contains(eout, "energy_per_MAC_pJ") {
		t.Fatalf("experiments output:\n%s", eout)
	}
}

// TestCLIObservability runs thistle with the full observability flag
// set and checks the Chrome trace, metrics snapshots, event stream and
// profiles it leaves behind, and that the telemetry derived from each
// record agrees with it (see checkDerivedTelemetry).
func TestCLIObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	eventsPath := filepath.Join(dir, "run.events.jsonl")

	cmd := exec.Command(filepath.Join(bin, "thistle"),
		"-layer", "resnet18_L12", "-specs=false",
		"-v", "debug", "-trace-out", tracePath, "-metrics",
		"-metrics-json", metricsPath, "-events", eventsPath,
		"-cpuprofile", cpuPath, "-memprofile", memPath)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("thistle with observability flags: %v\n%s", err, out)
	}
	sout := string(out)
	if !strings.Contains(sout, "--- metrics ---") || !strings.Contains(sout, "solver.newton_iters") {
		t.Fatalf("metrics table missing from output:\n%s", sout)
	}
	if !strings.Contains(sout, "DEBUG") {
		t.Fatalf("-v debug produced no DEBUG log lines:\n%s", sout)
	}

	tf, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := tracefile.Read(tf)
	tf.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range trace.Spans {
		names[s.Name] = true
	}
	for _, span := range []string{
		"optimize", "rs-placement", "enumerate-classes",
		"gp-solve-pass", "gp-pair", "formulate", "solve",
		"phase-ii", "integerize", "model-eval",
	} {
		if !names[span] {
			t.Errorf("trace missing span %q", span)
		}
	}

	metrics, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name  string `json:"name"`
			Count int64  `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(metrics, &snap); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, metrics)
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, c := range []string{"solver.newton_iters", "solver.solves", "core.pairs_solved", "core.int_candidates"} {
		if counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0 (metrics: %s)", c, counters[c], metrics)
		}
	}
	histCounts := map[string]int64{}
	for _, h := range snap.Histograms {
		histCounts[h.Name] = h.Count
	}
	checkDerivedTelemetry(t, sout, eventsPath, trace, counters, histCounts)

	for _, p := range []string{cpuPath, memPath} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s: %v", p, err)
		} else if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// checkDerivedTelemetry checks a single-layer thistle run's telemetry
// against the records it is derived from. Each core.* counter must
// equal its field of the run's Stats, as the search line prints them or
// as the solve_end events count them; the solver.* counters and the
// solve_duration histogram must sum the solve_end events; the search
// line's cut-off count must equal the solve_end events whose status is
// cutoff; and every
// solve span must carry the fields of one solve_end event (absent
// optional fields read as zero; the span's duration stands in for
// wall_us).
func checkDerivedTelemetry(t *testing.T, out, eventsPath string, trace *tracefile.Trace, counters, histCounts map[string]int64) {
	t.Helper()
	m := regexp.MustCompile(`search: +(\d+) x (\d+) permutation classes, (\d+) GPs solved(?: \((\d+) cut off\))?(?: \(\+(\d+) pruned by bound\))?, (\d+) integer candidates`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no search line in output:\n%s", out)
	}
	stat := func(i int) int64 {
		n, _ := strconv.ParseInt(m[i], 10, 64) // an absent cut-off or pruned count reads 0
		return n
	}

	data, err := os.ReadFile(eventsPath)
	if err != nil {
		t.Fatal(err)
	}
	defaults := map[string]any{"objective": 0.0, "gap": 0.0, "phase1": false, "warm_start": false, "phase1_skipped": false}
	solveEnds := map[string]int{} // canonical fields → count
	var solves, newton, infeasible, suboptimal, cutoff, hits, misses int64
	for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Type   string         `json:"type"`
			Fields map[string]any `json:"fields"`
		}
		if err := json.Unmarshal([]byte(ln), &ev); err != nil {
			t.Fatalf("event line %q: %v", ln, err)
		}
		if ev.Type != "solve_end" {
			continue
		}
		f := map[string]any{}
		for k, v := range defaults {
			f[k] = v
		}
		for k, v := range ev.Fields {
			f[k] = v
		}
		delete(f, "wall_us")
		key, _ := json.Marshal(f)
		solveEnds[string(key)]++
		solves++
		newton += int64(f["newton"].(float64))
		switch f["status"] {
		case "infeasible":
			infeasible++
		case "suboptimal":
			suboptimal++
		case "cutoff":
			cutoff++
		}
		if f["warm_start"] == true {
			if f["phase1_skipped"] == true {
				hits++
			} else {
				misses++
			}
		}
	}
	if solves == 0 {
		t.Fatal("no solve_end events")
	}

	for name, want := range map[string]int64{
		"core.classes_l1":       stat(1),
		"core.classes_sram":     stat(2),
		"core.pairs_solved":     stat(3),
		"core.pairs_cutoff":     stat(4),
		"core.pairs_pruned":     stat(5),
		"core.int_candidates":   stat(6),
		"core.gp_infeasible":    infeasible,
		"core.gp_suboptimal":    suboptimal,
		"solver.solves":         solves,
		"solver.newton_iters":   newton,
		"solver.infeasible":     infeasible,
		"solver.warmstart.hit":  hits,
		"solver.warmstart.miss": misses,
	} {
		got, ok := counters[name]
		if !ok && (strings.HasPrefix(name, "core.") || want != 0) {
			t.Errorf("counter %s missing, want %d", name, want)
		} else if got != want {
			t.Errorf("counter %s = %d, want %d from its record", name, got, want)
		}
	}
	// The placement record and the solver's statuses count the same
	// cut-off solves, and resnet18_L12 has some.
	if stat(4) != cutoff || cutoff == 0 {
		t.Errorf("search line reports %d solves cut off, %d solve_end events read cutoff; want equal and > 0", stat(4), cutoff)
	}
	if got := histCounts["solver.solve_duration"]; got != solves {
		t.Errorf("solver.solve_duration count = %d, want %d solve_end events", got, solves)
	}

	spans := 0
	for _, s := range trace.Spans {
		if s.Name != "solve" {
			continue
		}
		spans++
		attrs := map[string]any{}
		for k, v := range s.Args {
			if k != "span_id" && k != "parent_id" {
				attrs[k] = v
			}
		}
		key, _ := json.Marshal(attrs)
		if solveEnds[string(key)] == 0 {
			t.Errorf("solve span %s matches no solve_end event", key)
			continue
		}
		solveEnds[string(key)]--
	}
	if int64(spans) != solves {
		t.Errorf("%d solve spans, want %d solve_end events", spans, solves)
	}
}

// TestCLIRunRecords drives the run-record pipeline end to end: thistle
// writes an event stream and manifest, tlreport validates both, a diff
// of two identical runs is clean, and an injected 10% EDP regression is
// flagged with a non-zero exit code.
func TestCLIRunRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := buildCmds(t)
	dir := t.TempDir()
	events := filepath.Join(dir, "run.events.jsonl")
	manA := filepath.Join(dir, "a.manifest.json")
	manB := filepath.Join(dir, "b.manifest.json")

	run := func(wantExit int, name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		exit := 0
		if ee, ok := err.(*exec.ExitError); ok {
			exit = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		if exit != wantExit {
			t.Fatalf("%s %v: exit %d, want %d\n%s", name, args, exit, wantExit, out)
		}
		return string(out)
	}

	layerArgs := []string{"-layer", "resnet18_L12", "-specs=false"}
	run(0, "thistle", append(layerArgs, "-events", events, "-manifest", manA)...)
	run(0, "thistle", append(layerArgs, "-manifest", manB)...)

	// The stream is schema-valid and covers the full run lifecycle.
	vout := run(0, "tlreport", "validate", "-manifest", manA, events)
	for _, want := range []string{"stream ok", "manifest ok", "optimize_end", "solve_end", "centering"} {
		if !strings.Contains(vout, want) {
			t.Fatalf("validate output missing %q:\n%s", want, vout)
		}
	}
	raw, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(string(raw), "\n", 2)[0]
	if !strings.Contains(first, `"schema":"thistle-events-v1"`) || !strings.Contains(first, `"run_start"`) {
		t.Fatalf("stream does not open with a schema-tagged run_start:\n%s", first)
	}

	// show renders the manifest pair as one table.
	sout := run(0, "tlreport", "show", manA, manB)
	if !strings.Contains(sout, "resnet18_L12") || !strings.Contains(sout, "total") {
		t.Fatalf("show output:\n%s", sout)
	}

	// Two identical runs diff clean (wall tolerance loosened: the runs
	// are deterministic in results, not in wall time).
	dout := run(0, "tlreport", "diff", "-wall-tol", "10", manA, manB)
	if !strings.Contains(dout, "0 regression(s)") {
		t.Fatalf("identical runs should diff clean:\n%s", dout)
	}

	// Inject a 10% EDP regression into a copy of B and diff again: the
	// gate must trip with exit code 2.
	var man map[string]any
	rawB, err := os.ReadFile(manB)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rawB, &man); err != nil {
		t.Fatal(err)
	}
	for _, l := range man["layers"].([]any) {
		row := l.(map[string]any)
		row["edp"] = row["edp"].(float64) * 1.1
	}
	totals := man["totals"].(map[string]any)
	totals["edp"] = totals["edp"].(float64) * 1.1
	manC := filepath.Join(dir, "c.manifest.json")
	mutated, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manC, mutated, 0o644); err != nil {
		t.Fatal(err)
	}
	rout := run(2, "tlreport", "diff", "-wall-tol", "10", manA, manC)
	if !strings.Contains(rout, "REGRESSION") || !strings.Contains(rout, "edp") {
		t.Fatalf("regression diff output:\n%s", rout)
	}

	// A corrupt manifest is skipped with a warning by show, and fails
	// validate's manifest check.
	if err := os.WriteFile(manC, mutated[:len(mutated)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	wout := run(0, "tlreport", "show", manC, manA)
	if !strings.Contains(wout, "warning: ignoring") {
		t.Fatalf("corrupt manifest not warned about:\n%s", wout)
	}

	// Without -n the CLI must use the library's integerization default
	// (3 divisors for delay), so its delay design matches core.Optimize
	// called with NDiv left zero.
	manD := filepath.Join(dir, "delay.manifest.json")
	run(0, "thistle", "-layer", "resnet18_L11", "-criterion", "delay",
		"-specs=false", "-manifest", manD)
	rawD, err := os.ReadFile(manD)
	if err != nil {
		t.Fatal(err)
	}
	var manDelay struct {
		Layers []struct {
			Cycles float64 `json:"cycles"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(rawD, &manDelay); err != nil {
		t.Fatal(err)
	}
	if len(manDelay.Layers) != 1 {
		t.Fatalf("delay manifest has %d layers, want 1", len(manDelay.Layers))
	}
	l, _ := workloads.ByName("resnet18_L11")
	p, err := l.Problem()
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Eyeriss()
	res, err := core.Optimize(p, core.Options{
		Criterion: model.MinDelay, Mode: core.FixedArch, Arch: &a, NDiv: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := manDelay.Layers[0].Cycles, res.Best.Report.Cycles; !floats.EqTol(got, want, 1e-12) {
		t.Fatalf("thistle -criterion delay: %v cycles, core.Optimize with NDiv 0: %v", got, want)
	}
}

// TestCLIEventStreamMatchesFixture reruns the run that recorded
// internal/obs/events/testdata/resnet18_L12.cli.events.jsonl and
// requires the same events: apart
// from the framing (seq, t_us) and the fields that name the run, the
// build or the clock, every event's fields must equal one recorded
// event's. Zero values are
// dropped on both sides, since an optional field at zero is omitted
// from the stream (Validate checks the required ones are present).
// The events are compared as a multiset: even at -parallel 1 the GP
// solves' solve_end and centering events interleave run to run.
//
// The recording follows the solver: a change that moves its iterates
// on purpose re-records it (from that directory, with a binary built
// with -buildvcs=false, so no revision is stamped in). The events
// package's own resnet18_L12.events.jsonl is an older stream, kept
// as it was written to pin Validate's verdict on streams on disk.
func TestCLIEventStreamMatchesFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := buildCmds(t)
	path := filepath.Join(t.TempDir(), "run.events.jsonl")
	cmd := exec.Command(filepath.Join(bin, "thistle"),
		"-layer", "resnet18_L12", "-specs=false", "-parallel", "1", "-events", path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("thistle: %v\n%s", err, out)
	}
	canonical := func(path string) []string {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		evs, warnings, err := events.ReadStream(f)
		if err != nil || len(warnings) > 0 {
			t.Fatalf("%s: %v %v", path, err, warnings)
		}
		var out []string
		for _, ev := range evs {
			for k, v := range ev.Fields {
				switch k {
				case "wall_us", "run_id", "start_time", "git_rev", "go_version", "args":
					delete(ev.Fields, k)
				}
				if v == 0.0 || v == false || v == "" {
					delete(ev.Fields, k)
				}
			}
			b, err := json.Marshal(map[string]any{"type": ev.Type, "fields": ev.Fields})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, string(b))
		}
		sort.Strings(out)
		return out
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if sum, err := events.Validate(f); err != nil || len(sum.Warnings) > 0 {
		t.Fatalf("validate: %v %+v", err, sum)
	}
	got := canonical(path)
	want := canonical("internal/obs/events/testdata/resnet18_L12.cli.events.jsonl")
	if len(got) != len(want) {
		t.Fatalf("%d events, fixture has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event differs from the fixture:\n got %s\nwant %s", got[i], want[i])
		}
	}
}

// TestCLIErrors exercises the failure paths of the tools.
func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	bin := buildCmds(t)
	fail := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("%s %v unexpectedly succeeded:\n%s", name, args, out)
		}
		return string(out)
	}
	if out := fail("thistle", "-layer", "nope"); !strings.Contains(out, "unknown layer") {
		t.Fatalf("thistle error output:\n%s", out)
	}
	if out := fail("thistle", "-layer", "resnet18_L2", "-criterion", "watts"); !strings.Contains(out, "unknown criterion") {
		t.Fatalf("thistle criterion error:\n%s", out)
	}
	if out := fail("tlmapper"); !strings.Contains(out, "specify") {
		t.Fatalf("tlmapper error:\n%s", out)
	}
	if out := fail("tlmodel"); !strings.Contains(out, "specify") {
		t.Fatalf("tlmodel error:\n%s", out)
	}
	if out := fail("experiments", "-exp", "fig99"); !strings.Contains(out, "unknown experiment") {
		t.Fatalf("experiments error:\n%s", out)
	}
}

func extractBetween(t *testing.T, s, pre, post string) string {
	t.Helper()
	i := strings.Index(s, pre)
	if i < 0 {
		t.Fatalf("marker %q not found in:\n%s", pre, s)
	}
	rest := s[i+len(pre):]
	j := strings.Index(rest, post)
	if j < 0 {
		t.Fatalf("marker %q not found in:\n%s", post, rest)
	}
	return rest[:j]
}

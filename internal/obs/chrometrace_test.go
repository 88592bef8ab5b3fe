package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeChrome parses writer output back for structural assertions.
func decodeChrome(t *testing.T, b []byte) ChromeTraceFile {
	t.Helper()
	var f ChromeTraceFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, b)
	}
	return f
}

// spanEvents filters the complete ("X") events out of a trace file.
func spanEvents(f ChromeTraceFile) []ChromeEvent {
	var out []ChromeEvent
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			out = append(out, ev)
		}
	}
	return out
}

func TestDeriveTraceID(t *testing.T) {
	a, b := DeriveTraceID("run-1"), DeriveTraceID("run-1")
	if a != b {
		t.Fatalf("same seed, different IDs: %s vs %s", a, b)
	}
	if len(a) != 16 {
		t.Fatalf("trace ID %q: want 16 hex digits", a)
	}
	if DeriveTraceID("run-2") == a {
		t.Fatal("different seeds collided")
	}
}

func TestTracerTraceID(t *testing.T) {
	var nilTr *Tracer
	if nilTr.TraceID() != "" {
		t.Fatal("nil tracer should report empty trace ID")
	}
	nilTr.SetTraceID("x") // must not panic

	tr := NewTracer()
	if tr.TraceID() != "" {
		t.Fatal("empty tracer should report empty trace ID")
	}
	tr.SetTraceID("first")
	tr.SetTraceID("second")
	if got := tr.TraceID(); got != "first" {
		t.Fatalf("SetTraceID not first-wins: got %q", got)
	}

	// Unset ID derives deterministically from the first root's start.
	tr2 := NewTracer()
	epoch := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tr2.now = func() time.Time { return epoch }
	tr2.StartSpan(nil, "root").End()
	id := tr2.TraceID()
	if id == "" {
		t.Fatal("tracer with spans should derive a trace ID")
	}
	if tr2.TraceID() != id {
		t.Fatal("derived trace ID should be stable")
	}
}

func TestSpanIDsAssigned(t *testing.T) {
	tr := NewTracer()
	a := tr.StartSpan(nil, "a")
	b := tr.StartSpan(a, "b")
	if a.ID() == 0 || b.ID() == 0 || a.ID() == b.ID() {
		t.Fatalf("span IDs not unique/nonzero: a=%d b=%d", a.ID(), b.ID())
	}
	var nilSpan *Span
	if nilSpan.ID() != 0 {
		t.Fatal("nil span should report ID 0")
	}
	b.End()
	a.End()
	tree := tr.Tree()
	if tree[0].ID != a.ID() || tree[0].Children[0].ID != b.ID() {
		t.Fatalf("snapshot IDs differ from live IDs: %+v", tree)
	}
}

// buildForest creates the same span structure either sequentially or
// with `par` concurrent workers attaching children to one parent. The
// constant clock makes timings identical regardless of scheduling, so
// the canonical serialization must be byte-identical.
func buildForest(par int) *Tracer {
	tr := NewTracer()
	epoch := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tr.now = func() time.Time { return epoch }
	root := tr.StartSpan(nil, "root")
	const jobs = 24
	if par <= 1 {
		for i := 0; i < jobs; i++ {
			s := tr.StartSpan(root, "job", Int("i", i))
			tr.StartSpan(s, "leaf", Int("i", i)).End()
			s.End()
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, par)
		for i := 0; i < jobs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				s := tr.StartSpan(root, "job", Int("i", i))
				tr.StartSpan(s, "leaf", Int("i", i)).End()
				s.End()
			}(i)
		}
		wg.Wait()
	}
	root.End()
	return tr
}

func TestChromeTraceDeterministicAcrossParallelism(t *testing.T) {
	var outs [][]byte
	for _, par := range []int{1, 4} {
		tr := buildForest(par)
		tr.SetTraceID("fixed")
		var buf bytes.Buffer
		clamped, err := tr.WriteChromeTrace(&buf, map[string]string{"tool": "test"})
		if err != nil {
			t.Fatal(err)
		}
		if clamped != 0 {
			t.Fatalf("parallel=%d: unexpected clamped count %d", par, clamped)
		}
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("trace JSON differs between -parallel 1 and 4:\n--- 1:\n%s\n--- 4:\n%s", outs[0], outs[1])
	}
	// And serialization itself is idempotent.
	tr := buildForest(1)
	tr.SetTraceID("fixed")
	var b1, b2 bytes.Buffer
	if _, err := tr.WriteChromeTrace(&b1, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.WriteChromeTrace(&b2, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("re-serializing the same tracer changed the bytes")
	}
}

func TestChromeTraceCanonicalIDsInPreorder(t *testing.T) {
	tr := buildForest(4)
	var buf bytes.Buffer
	if _, err := tr.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs := spanEvents(decodeChrome(t, buf.Bytes()))
	seen := map[int64]bool{}
	for i, ev := range evs {
		id := int64(ev.Args["span_id"].(float64))
		if id != int64(i)+1 {
			t.Fatalf("event %d: canonical span_id %d, want %d", i, id, i+1)
		}
		if pidV, ok := ev.Args["parent_id"]; ok {
			pid := int64(pidV.(float64))
			if !seen[pid] {
				t.Fatalf("event %d: parent_id %d not emitted before child", i, pid)
			}
		}
		seen[id] = true
	}
}

func TestChromeTraceClampsChildEndingAfterParent(t *testing.T) {
	tr := NewTracer()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tr.now = func() time.Time { return now }
	parent := tr.StartSpan(nil, "parent")
	now = now.Add(10 * time.Millisecond)
	child := tr.StartSpan(parent, "child")
	now = now.Add(10 * time.Millisecond)
	parent.End() // parent ends at t=20ms
	now = now.Add(30 * time.Millisecond)
	child.End() // child ends at t=50ms — after its parent

	var buf bytes.Buffer
	clamped, err := tr.WriteChromeTrace(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clamped != 1 {
		t.Fatalf("clamped = %d, want 1", clamped)
	}
	f := decodeChrome(t, buf.Bytes())
	if f.OtherData["clamped_spans"] != "1" {
		t.Fatalf("otherData.clamped_spans = %q, want 1", f.OtherData["clamped_spans"])
	}
	evs := spanEvents(f)
	if len(evs) != 2 {
		t.Fatalf("want 2 span events, got %d", len(evs))
	}
	byName := map[string]ChromeEvent{}
	for _, ev := range evs {
		byName[ev.Name] = ev
	}
	p, c := byName["parent"], byName["child"]
	if c.Dur < 0 || p.Dur < 0 {
		t.Fatalf("negative duration emitted: parent=%d child=%d", p.Dur, c.Dur)
	}
	if c.TS < p.TS || c.TS+c.Dur > p.TS+p.Dur {
		t.Fatalf("child [%d,%d] escapes parent [%d,%d]", c.TS, c.TS+c.Dur, p.TS, p.TS+p.Dur)
	}
}

func TestChromeTraceUnfinishedSpans(t *testing.T) {
	tr := NewTracer()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tr.now = func() time.Time { return now }
	parent := tr.StartSpan(nil, "parent", Float("obj", 1.5))
	now = now.Add(time.Millisecond)
	tr.StartSpan(parent, "dangling") // never ended
	now = now.Add(time.Millisecond)
	parent.End()

	var buf bytes.Buffer
	clamped, err := tr.WriteChromeTrace(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if clamped != 0 {
		t.Fatalf("unfinished spans must not count as clamped, got %d", clamped)
	}
	byName := map[string]ChromeEvent{}
	for _, ev := range spanEvents(decodeChrome(t, buf.Bytes())) {
		byName[ev.Name] = ev
	}
	if got := byName["parent"].Args["obj"]; got != 1.5 {
		t.Fatalf("span attribute obj = %v in args %+v, want 1.5", got, byName["parent"].Args)
	}
	ev, ok := byName["dangling"]
	if !ok {
		t.Fatal("dangling span missing from output")
	}
	if ev.Args["unfinished"] != true {
		t.Fatalf("dangling span not marked unfinished: %+v", ev.Args)
	}
	if ev.TS+ev.Dur != 2000 {
		t.Fatalf("dangling span should extend to parent end (2000us), got end %d", ev.TS+ev.Dur)
	}
}

// TestChromeTraceLanes checks the tid assignment: concurrent siblings
// land on different lanes, nested children share their parent's lane,
// and sequential spans reuse a drained lane.
func TestChromeTraceLanes(t *testing.T) {
	tr := NewTracer()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	at := func(ms int) time.Time { return now.Add(time.Duration(ms) * time.Millisecond) }
	tr.now = func() time.Time { return at(0) }
	root := tr.StartSpan(nil, "root")
	// Two overlapping children: [1,5] and [2,6].
	tr.now = func() time.Time { return at(1) }
	c1 := tr.StartSpan(root, "overlap-a")
	tr.now = func() time.Time { return at(2) }
	c2 := tr.StartSpan(root, "overlap-b")
	tr.now = func() time.Time { return at(3) }
	g := tr.StartSpan(c1, "nested") // inside overlap-a
	tr.now = func() time.Time { return at(4) }
	g.End()
	tr.now = func() time.Time { return at(5) }
	c1.End()
	tr.now = func() time.Time { return at(6) }
	c2.End()
	// A later sequential child: should reuse a drained lane, not open
	// lane 3.
	tr.now = func() time.Time { return at(7) }
	c3 := tr.StartSpan(root, "sequential")
	tr.now = func() time.Time { return at(8) }
	c3.End()
	tr.now = func() time.Time { return at(9) }
	root.End()

	var buf bytes.Buffer
	if _, err := tr.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs := spanEvents(decodeChrome(t, buf.Bytes()))
	lane := map[string]int64{}
	for _, ev := range evs {
		lane[ev.Name] = ev.TID
	}
	if lane["overlap-a"] == lane["overlap-b"] {
		t.Fatalf("overlapping siblings share lane %d", lane["overlap-a"])
	}
	if lane["nested"] != lane["overlap-a"] {
		t.Fatalf("nested child on lane %d, parent on %d", lane["nested"], lane["overlap-a"])
	}
	if lane["sequential"] != lane["root"] && lane["sequential"] != lane["overlap-a"] && lane["sequential"] != lane["overlap-b"] {
		t.Fatalf("sequential span opened a fresh lane %d: %v", lane["sequential"], lane)
	}
	// Laminar check per lane: intervals sharing a tid must be nested or
	// disjoint, or the Chrome viewer renders garbage.
	type iv struct{ s, e int64 }
	byLane := map[int64][]iv{}
	for _, ev := range evs {
		byLane[ev.TID] = append(byLane[ev.TID], iv{ev.TS, ev.TS + ev.Dur})
	}
	for tid, ivs := range byLane {
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				a, b := ivs[i], ivs[j]
				disjoint := a.e <= b.s || b.e <= a.s
				nested := (a.s <= b.s && b.e <= a.e) || (b.s <= a.s && a.e <= b.e)
				if !disjoint && !nested {
					t.Fatalf("lane %d: intervals %v and %v partially overlap", tid, a, b)
				}
			}
		}
	}
}

func TestChromeTraceMetaAndTraceID(t *testing.T) {
	tr := buildForest(1)
	tr.SetTraceID(DeriveTraceID("run-xyz"))
	var buf bytes.Buffer
	if _, err := tr.WriteChromeTrace(&buf, map[string]string{
		"tool": "thistle", "git_rev": "abc123", "empty": "",
	}); err != nil {
		t.Fatal(err)
	}
	f := decodeChrome(t, buf.Bytes())
	if f.OtherData["schema"] != ChromeTraceSchema {
		t.Fatalf("schema = %q", f.OtherData["schema"])
	}
	if f.OtherData["trace_id"] != DeriveTraceID("run-xyz") {
		t.Fatalf("trace_id = %q", f.OtherData["trace_id"])
	}
	if f.OtherData["tool"] != "thistle" || f.OtherData["git_rev"] != "abc123" {
		t.Fatalf("meta not merged: %v", f.OtherData)
	}
	if _, ok := f.OtherData["empty"]; ok {
		t.Fatal("empty meta value should be dropped")
	}
}

// TestChromeTraceConcurrentAttachment hammers one parent from many
// goroutines with a live clock and checks the writer emits structurally
// valid, laminar-per-lane output (run under -race in check.sh).
func TestChromeTraceConcurrentAttachment(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan(nil, "root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := tr.StartSpan(root, fmt.Sprintf("w%02d", i))
			for j := 0; j < 4; j++ {
				tr.StartSpan(s, "leaf", Int("j", j)).End()
			}
			s.End()
		}(i)
	}
	wg.Wait()
	root.End()
	var buf bytes.Buffer
	if _, err := tr.WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs := spanEvents(decodeChrome(t, buf.Bytes()))
	if len(evs) != 1+16+16*4 {
		t.Fatalf("got %d span events, want %d", len(evs), 1+16+16*4)
	}
	for _, ev := range evs {
		if ev.Dur < 0 {
			t.Fatalf("negative duration in %s", ev.Name)
		}
	}
	if !strings.Contains(buf.String(), `"schema": "thistle-trace-v1"`) {
		t.Fatal("schema tag missing")
	}
}

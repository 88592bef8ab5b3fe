package events

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

// emitLifecycle writes a minimal but complete stream through e.
func emitLifecycle(e *Emitter) {
	e.Emit(&obs.RunStart{RunID: "r1", Tool: "test", GoVersion: "go", Args: []string{"-x"}})
	e.Emit(&obs.OptimizeStart{Problem: "l1", Mode: "fixedarch"})
	e.Emit(&obs.Centering{Step: 1, Gap: 0.5, Newton: 7, Backtracks: 2})
	e.Emit(&obs.SolveEnd{Status: "optimal", Newton: 7, Centerings: 1})
	e.Emit(&obs.OptimizeEnd{
		Problem: "l1", Status: "ok", Figures: obs.Figures{EnergyPJ: 10, Cycles: 20, EDP: 200},
	})
	e.Emit(&obs.RunEnd{Layers: 1, EnergyPJ: 10, Cycles: 20, EDP: 200, WallUS: 5})
}

// typed decodes a read-back event into its registered payload type.
func typed(t *testing.T, ev Event) obs.Event {
	t.Helper()
	for _, proto := range obs.EventTypes {
		if proto.EventType() != ev.Type {
			continue
		}
		data, err := json.Marshal(ev.Fields)
		if err != nil {
			t.Fatal(err)
		}
		out := reflect.New(reflect.TypeOf(proto).Elem()).Interface().(obs.Event)
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	t.Fatalf("event type %q not registered", ev.Type)
	return nil
}

func TestStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(&buf)
	emitLifecycle(e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	evs, warnings, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if len(evs) != 6 {
		t.Fatalf("got %d events, want 6", len(evs))
	}
	if evs[0].Schema != SchemaVersion {
		t.Fatalf("run_start schema = %q, want %q", evs[0].Schema, SchemaVersion)
	}
	if evs[1].Schema != "" {
		t.Fatalf("non-start events must not repeat the schema, got %q", evs[1].Schema)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d: seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	// Round-trip fidelity: the parsed gap must equal the emitted value.
	if gap := evs[2].Fields["gap"].(float64); gap != 0.5 {
		t.Fatalf("centering gap = %v, want 0.5", gap)
	}
	if got := evs[4].Fields["problem"].(string); got != "l1" {
		t.Fatalf("optimize_end problem = %q", got)
	}
	// Re-emitting the parsed events reproduces identical field sets.
	var buf2 bytes.Buffer
	e2 := NewEmitter(&buf2)
	for _, ev := range evs {
		e2.Emit(typed(t, ev))
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	evs2, _, err := ReadStream(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if evs[i].Type != evs2[i].Type || !reflect.DeepEqual(evs[i].Fields, evs2[i].Fields) {
			t.Fatalf("event %d changed across round trip:\n%+v\n%+v", i, evs[i], evs2[i])
		}
	}
}

func TestValidateCleanStream(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(&buf)
	emitLifecycle(e)
	e.Close()
	sum, err := Validate(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Complete || sum.RunID != "r1" || sum.Events != 6 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", sum.Warnings)
	}
	if sum.ByType[obs.EvCentering] != 1 || sum.ByType[obs.EvSolveEnd] != 1 {
		t.Fatalf("by-type counts wrong: %v", sum.ByType)
	}
}

func TestValidateTruncatedFinalLine(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(&buf)
	emitLifecycle(e)
	e.Close()
	// Chop the stream mid-way through the final line, as a crash would.
	data := buf.Bytes()
	data = data[:len(data)-10]
	sum, err := Validate(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("truncated final line must be tolerated, got %v", err)
	}
	if sum.Complete {
		t.Fatal("truncated stream should not be complete (run_end was cut)")
	}
	if len(sum.Warnings) == 0 {
		t.Fatal("expected a truncation warning")
	}
}

// badStreams are invalid streams, by what is wrong with them.
var badStreams = map[string]string{
	"empty":          "",
	"not run_start":  `{"seq":1,"t_us":0,"type":"solve_end","fields":{"status":"ok","newton":1,"centerings":1}}` + "\n\n",
	"wrong schema":   `{"schema":"thistle-events-v0","seq":1,"t_us":0,"type":"run_start","fields":{"run_id":"r","tool":"t","go_version":"g"}}` + "\n\n",
	"missing fields": `{"schema":"thistle-events-v1","seq":1,"t_us":0,"type":"run_start","fields":{"run_id":"r"}}` + "\n\n",
	"seq not increasing": `{"schema":"thistle-events-v1","seq":1,"t_us":0,"type":"run_start","fields":{"run_id":"r","tool":"t","go_version":"g"}}` + "\n" +
		`{"seq":1,"t_us":1,"type":"optimize_start","fields":{"problem":"l1"}}` + "\n\n",
}

// unknownTypeStream carries an event type this version does not know.
const unknownTypeStream = `{"schema":"thistle-events-v1","seq":1,"t_us":0,"type":"run_start","fields":{"run_id":"r","tool":"t","go_version":"g"}}` + "\n" +
	`{"seq":2,"t_us":1,"type":"future_thing","fields":{"whatever":true}}` + "\n\n"

func TestValidateRejectsBadStreams(t *testing.T) {
	for name, stream := range badStreams {
		if _, err := Validate(strings.NewReader(stream)); err == nil {
			t.Errorf("%s: Validate accepted an invalid stream", name)
		}
	}
}

func TestValidateUnknownTypePasses(t *testing.T) {
	if _, err := Validate(strings.NewReader(unknownTypeStream)); err != nil {
		t.Fatalf("unknown event types must pass (forward compatibility): %v", err)
	}
}

func TestMultiAndObsIntegration(t *testing.T) {
	var buf bytes.Buffer
	em := NewEmitter(&buf)
	rec := NewRecorder("test", nil)
	o := &obs.Obs{Events: Multi(em, rec)}
	if !o.EventsEnabled() {
		t.Fatal("EventsEnabled should be true with a sink attached")
	}
	o.Emit(&obs.OptimizeEnd{
		Problem: "l1", Status: "ok", Figures: obs.Figures{EnergyPJ: 2, Cycles: 3, EDP: 6},
	})
	em.Close()
	if !strings.Contains(buf.String(), `"optimize_end"`) {
		t.Fatalf("emitter missed the event:\n%s", buf.String())
	}
	man := rec.Finish(nil, nil)
	if len(man.Layers) != 1 || man.Layers[0].EDP != 6.0 {
		t.Fatalf("recorder missed the event: %+v", man.Layers)
	}
	var nilObs *obs.Obs
	nilObs.Emit(&obs.RunEnd{}) // must not panic
	if nilObs.EventsEnabled() {
		t.Fatal("nil Obs should report events disabled")
	}
	if Multi(nil, nil) != nil {
		t.Fatal("Multi of no sinks should be nil")
	}
}

// fixture is a thistle-events-v1 stream recorded before the payloads
// were typed: `thistle -layer resnet18_L12 -specs=false -parallel 1
// -events resnet18_L12.events.jsonl`.
const fixture = "testdata/resnet18_L12.events.jsonl"

// TestValidateFixture pins Validate's summary of the recorded stream,
// so streams already on disk keep their verdict and counts.
func TestValidateFixture(t *testing.T) {
	f, err := os.Open(fixture)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sum, err := Validate(f)
	if err != nil {
		t.Fatal(err)
	}
	want := &StreamSummary{
		Events: 684,
		ByType: map[string]int{
			obs.EvRunStart: 1, obs.EvOptimizeStart: 1, obs.EvSolveEnd: 85,
			obs.EvCentering: 595, obs.EvOptimizeEnd: 1, obs.EvRunEnd: 1,
		},
		RunID:    "20261018T080216-d9ef5792",
		Complete: true,
	}
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("summary = %+v, want %+v", sum, want)
	}
}

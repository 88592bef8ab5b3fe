// Package events is the durable-record layer of the reproduction's
// observability stack: where internal/obs's spans and metrics die with
// the process, this package writes machine-readable artifacts that
// survive it — a schema-versioned JSONL event stream covering the whole
// run lifecycle (run start/end, per-layer optimize outcomes, per-
// centering solver convergence, cache hits, model validation) and a
// final per-run manifest (run identity, per-layer EDP/energy/delay,
// cache stats, metrics snapshot) written atomically. cmd/tlreport loads
// manifests back to render aggregate tables and diff runs for
// regressions, making every optimization run a reproducible, comparable
// data point.
//
// The package plugs into the existing telemetry plumbing through
// obs.EventSink: an Emitter (JSONL writer) and a Recorder (manifest
// builder) both implement it, and the solver and core layers emit
// through the nil-safe obs.Obs.Emit hook they already carry, each event
// a typed payload from internal/obs (obs.EventTypes). Below the CLI
// layer only cache imports this package, to convert its counters into
// CacheStats.
package events

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// SchemaVersion tags the event-stream format. It is written into the
// run_start event of every stream; Validate rejects streams written by
// an incompatible format instead of misreading them.
const SchemaVersion = "thistle-events-v1"

// Event is one line of the JSONL stream as read back. Seq is strictly
// increasing within a stream (assigned by the Emitter under its lock,
// so events from parallel solver goroutines are totally ordered).
// TimeUS is microseconds since the stream was opened — relative, so
// identical runs produce comparable streams. Schema is set on run_start
// only. Fields is the payload struct's JSON object, decoded generically
// so streams from other versions stay readable.
type Event struct {
	Schema string         `json:"schema,omitempty"`
	Seq    int64          `json:"seq"`
	TimeUS int64          `json:"t_us"`
	Type   string         `json:"type"`
	Fields map[string]any `json:"fields,omitempty"`
}

// line is one line of the JSONL stream as written: Event's framing
// around a typed payload.
type line struct {
	Schema string    `json:"schema,omitempty"`
	Seq    int64     `json:"seq"`
	TimeUS int64     `json:"t_us"`
	Type   string    `json:"type"`
	Fields obs.Event `json:"fields"`
}

// Emitter writes the JSONL stream. It is safe for concurrent use; Emit
// never returns an error (the stream is telemetry, not a correctness
// dependency) — the first write failure is latched and reported by
// Close. A nil *Emitter discards everything.
type Emitter struct {
	mu    sync.Mutex
	w     *bufio.Writer
	f     *os.File
	seq   int64
	start time.Time
	err   error
}

// NewEmitter wraps a writer. The caller owns the writer's lifetime;
// Close flushes but does not close it.
func NewEmitter(w io.Writer) *Emitter {
	return &Emitter{w: bufio.NewWriter(w), start: time.Now()}
}

// Create opens path for writing and returns an emitter that owns the
// file (Close closes it).
func Create(path string) (*Emitter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	e := NewEmitter(f)
	e.f = f
	return e, nil
}

// Emit appends one event. Implements obs.EventSink.
func (e *Emitter) Emit(ev obs.Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	e.seq++
	l := line{
		Seq:    e.seq,
		TimeUS: time.Since(e.start).Microseconds(),
		Type:   ev.EventType(),
		Fields: ev,
	}
	if l.Type == obs.EvRunStart {
		l.Schema = SchemaVersion
	}
	data, err := json.Marshal(l)
	if err != nil {
		e.err = err
		return
	}
	data = append(data, '\n')
	if _, err := e.w.Write(data); err != nil {
		e.err = err
	}
}

// Close flushes the stream (and closes the file when the emitter owns
// one), returning the first error encountered over the stream's life.
func (e *Emitter) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.w.Flush(); e.err == nil {
		e.err = err
	}
	if e.f != nil {
		if err := e.f.Close(); e.err == nil {
			e.err = err
		}
		e.f = nil
	}
	return e.err
}

// ReadStream parses a JSONL event stream. A truncated final line (the
// process died mid-write) is tolerated and reported via the returned
// warning list, mirroring the manifest's partial-file policy; any other
// malformed line is an error.
func ReadStream(r io.Reader) ([]Event, []string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var events []Event
	var pending string // last line, held back until we know another follows
	line := 0
	for sc.Scan() {
		if pending != "" {
			var ev Event
			if err := json.Unmarshal([]byte(pending), &ev); err != nil {
				return nil, nil, fmt.Errorf("events: line %d: %w", line, err)
			}
			events = append(events, ev)
		}
		pending = sc.Text()
		line++
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("events: line %d: %w", line+1, err)
	}
	var warnings []string
	if pending != "" {
		var ev Event
		if err := json.Unmarshal([]byte(pending), &ev); err != nil {
			warnings = append(warnings, fmt.Sprintf("ignoring truncated final line %d: %v", line, err))
		} else {
			events = append(events, ev)
		}
	}
	return events, warnings, nil
}

// ErrBadStream reports a structurally invalid event stream.
var ErrBadStream = errors.New("events: invalid stream")

// StreamSummary is what Validate learned about a stream.
type StreamSummary struct {
	Events   int
	ByType   map[string]int
	RunID    string
	Complete bool // a run_end event was present
	Warnings []string
}

// Validate checks a stream against the schema derived from the event
// payload types (obs.EventTypes): the first event must be run_start
// carrying the current SchemaVersion and its required fields, sequence
// numbers must be strictly increasing, and every known event type must
// carry its required fields with schema-conformant values. Unknown
// event types pass validation and unknown fields on known types are
// warnings (forward compatibility); a missing run_end (crash) and a
// truncated final line are also warnings, not errors.
func Validate(r io.Reader) (*StreamSummary, error) {
	events, warnings, err := ReadStream(r)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("%w: empty stream", ErrBadStream)
	}
	first := events[0]
	if first.Type != obs.EvRunStart {
		return nil, fmt.Errorf("%w: first event is %q, want %q", ErrBadStream, first.Type, obs.EvRunStart)
	}
	if first.Schema != SchemaVersion {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrBadStream, first.Schema, SchemaVersion)
	}
	specs := schema()
	sum := &StreamSummary{ByType: map[string]int{}, Warnings: warnings}
	prevSeq := int64(0)
	for i, ev := range events {
		if ev.Seq <= prevSeq {
			return nil, fmt.Errorf("%w: event %d: seq %d not increasing (previous %d)", ErrBadStream, i, ev.Seq, prevSeq)
		}
		prevSeq = ev.Seq
		if spec, known := specs[ev.Type]; known {
			// Iterate both field maps in sorted order so the first
			// error reported — and the order of unknown-field warnings
			// — is deterministic run to run.
			for _, field := range sortedKeys(spec.Required) {
				kind := spec.Required[field]
				v, ok := ev.Fields[field]
				if !ok {
					return nil, fmt.Errorf("%w: event %d (%s): missing required field %q", ErrBadStream, i, ev.Type, field)
				}
				if err := kind.CheckValue(v); err != nil {
					return nil, fmt.Errorf("%w: event %d (%s): field %q: %v", ErrBadStream, i, ev.Type, field, err)
				}
			}
			for _, field := range sortedKeys(ev.Fields) {
				v := ev.Fields[field]
				kind, known := spec.Kind(field)
				if !known {
					sum.Warnings = append(sum.Warnings,
						fmt.Sprintf("event %d (%s): unknown field %q", i, ev.Type, field))
					continue
				}
				if _, req := spec.Required[field]; req {
					continue // already checked
				}
				if err := kind.CheckValue(v); err != nil {
					return nil, fmt.Errorf("%w: event %d (%s): field %q: %v", ErrBadStream, i, ev.Type, field, err)
				}
			}
		}
		sum.Events++
		sum.ByType[ev.Type]++
		if ev.Type == obs.EvRunEnd {
			sum.Complete = true
		}
	}
	if id, ok := first.Fields["run_id"].(string); ok {
		sum.RunID = id
	}
	if !sum.Complete {
		sum.Warnings = append(sum.Warnings, "no run_end event: the run did not finish cleanly")
	}
	return sum, nil
}

// Multi fans one event out to several sinks, skipping nils. It returns
// nil when no sink remains, which keeps obs.EventsEnabled a meaningful
// fast-path guard.
func Multi(sinks ...sink) sink {
	var active []sink
	for _, s := range sinks {
		if s != nil {
			active = append(active, s)
		}
	}
	switch len(active) {
	case 0:
		return nil
	case 1:
		return active[0]
	}
	return multiSink(active)
}

// sink is the consumer side of the event stream; obs must not know this
// package, so the shared interface is declared there.
type sink = obs.EventSink

type multiSink []sink

func (m multiSink) Emit(ev obs.Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// sortedKeys returns m's keys in sorted order, for deterministic
// iteration over field maps in validation and reporting paths.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

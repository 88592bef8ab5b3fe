package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/obs/events"
	"repro/internal/workloads"
)

// eventLog is a concurrency-safe obs.EventSink recording emitted events
// in order.
type eventLog struct {
	mu     sync.Mutex
	types  []string
	fields []map[string]any
}

func (s *eventLog) Emit(typ string, fields map[string]any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.types = append(s.types, typ)
	s.fields = append(s.fields, fields)
}

func (s *eventLog) byType(typ string) []map[string]any {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []map[string]any
	for i, t := range s.types {
		if t == typ {
			out = append(out, s.fields[i])
		}
	}
	return out
}

// aliasBatch is a small whole-network-like batch: four distinct small
// conv shapes, interleaved with renamed aliases (same shape, so same
// solve signature — names are not hashed). Several groups in flight at
// once make completion order differ from input order.
func aliasBatch(t *testing.T) []*loopnest.Problem {
	t.Helper()
	conv := func(index int, k, c, h int64) workloads.Layer {
		return workloads.Layer{Pipeline: "batch", Index: index, K: k, C: c, HIn: h, RS: 3, Stride: 1}
	}
	a, b, c, d := conv(1, 16, 16, 7), conv(2, 8, 16, 7), conv(3, 16, 8, 14), conv(4, 32, 16, 7)
	alias := func(l workloads.Layer, index int) workloads.Layer {
		l.Pipeline, l.Index = "alias", index
		return l
	}
	probs, err := workloads.Problems([]workloads.Layer{
		a, b, alias(a, 1), c, d, alias(b, 2), alias(a, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return probs
}

func batchOpts(parallel int) Options {
	a := arch.Eyeriss()
	return Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a, Parallel: parallel}
}

// TestOptimizeLayersDedupProvenance pins the deterministic-provenance
// contract: with groups solved concurrently and in whatever order they
// finish, every reused optimize_end row must still name the FIRST
// problem in input order that carries the signature as its "from", and
// the rows themselves appear in input order after every
// optimize_start. Getting provenance from completion order (or from a
// map iteration over groups) would be caught.
func TestOptimizeLayersDedupProvenance(t *testing.T) {
	probs := aliasBatch(t)
	log := &eventLog{}
	ctx := obs.NewContext(context.Background(), &obs.Obs{Events: log})
	results, err := OptimizeLayers(ctx, probs, batchOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(probs) {
		t.Fatalf("got %d results for %d problems", len(results), len(probs))
	}
	// Deduplicated entries share the owner's result pointer.
	if results[2] != results[0] || results[6] != results[0] || results[5] != results[1] {
		t.Fatal("deduplicated problems do not share the owner's result")
	}
	if results[0] == results[1] {
		t.Fatal("distinct shapes collapsed onto one result")
	}
	from := map[int]string{2: probs[0].Name, 5: probs[1].Name, 6: probs[0].Name}
	ends := log.byType(obs.EvOptimizeEnd)
	if len(ends) != len(probs) {
		t.Fatalf("got %d optimize_end events, want %d", len(ends), len(probs))
	}
	for i, f := range ends {
		if f["problem"] != probs[i].Name || f["status"] != "ok" || f["energy_pj"] == nil || f["sig"] == nil {
			t.Errorf("row %d: %v, want an ok row for %s", i, f, probs[i].Name)
		}
		if want, reused := from[i]; reused {
			if f["reused"] != true || f["from"] != want {
				t.Errorf("row %d: reused=%v from=%v, want reused from %s", i, f["reused"], f["from"], want)
			}
		} else if f["reused"] != nil || f["from"] != nil || f["wall_us"] == nil {
			t.Errorf("owner row %d: %v", i, f)
		}
	}
	// One start per group owner, in input order, all before the first
	// end; the total arrives first of all.
	if len(log.types) == 0 || log.types[0] != obs.EvLayersTotal || log.fields[0]["total"] != len(probs) {
		t.Fatalf("first event = %v, want layers_total %d", log.types[:1], len(probs))
	}
	var starts []any
	for i, typ := range log.types {
		if typ == obs.EvOptimizeStart {
			starts = append(starts, log.fields[i]["problem"])
		}
		if typ == obs.EvOptimizeEnd && len(starts) < 4 {
			t.Fatalf("optimize_end before every group started: starts %v", starts)
		}
	}
	want := []any{probs[0].Name, probs[1].Name, probs[3].Name, probs[4].Name}
	if len(starts) != len(want) {
		t.Fatalf("optimize_start problems = %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("optimize_start problems = %v, want %v", starts, want)
		}
	}
}

// TestOptimizeLayersRowsInInputOrder: the manifest of a batch lists one
// row per problem in input order, and apart from wall time the rows are
// byte-identical at any scheduler width.
func TestOptimizeLayersRowsInInputOrder(t *testing.T) {
	probs := aliasBatch(t)
	var first []byte
	for _, parallel := range []int{1, 4} {
		rec := events.NewRecorder("test", nil)
		ctx := obs.NewContext(context.Background(), &obs.Obs{Events: rec})
		if _, err := OptimizeLayers(ctx, probs, batchOpts(parallel)); err != nil {
			t.Fatal(err)
		}
		rows := rec.Finish(nil, nil).Layers
		if len(rows) != len(probs) {
			t.Fatalf("parallel %d: %d rows for %d problems", parallel, len(rows), len(probs))
		}
		for i := range rows {
			if rows[i].Name != probs[i].Name {
				t.Fatalf("parallel %d: row %d is %s, want %s", parallel, i, rows[i].Name, probs[i].Name)
			}
			rows[i].WallUS = 0
		}
		got, err := json.Marshal(rows)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Errorf("rows differ between parallel 1 and %d:\n%s\n%s", parallel, first, got)
		}
	}
}

// TestOptimizeLayersError: a failing solve surfaces as an error
// attributed to the owning problem, never as a bare cancellation. A
// single signature group (problem plus alias) keeps the attribution
// deterministic: the group owner is the first problem in input order.
func TestOptimizeLayersError(t *testing.T) {
	probs := aliasBatch(t)
	bad := arch.Arch{Name: "toosmall", PEs: 4, Regs: 2, SRAM: 2048, Tech: arch.Tech45nm()}
	_, err := OptimizeLayers(context.Background(), []*loopnest.Problem{probs[0], probs[2]},
		Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &bad, Parallel: 2})
	if err == nil {
		t.Fatal("expected error from infeasible architecture")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("real failure reported as cancellation: %v", err)
	}
	if got, want := err.Error(), probs[0].Name+": "; !strings.HasPrefix(got, want) {
		t.Fatalf("error %q not attributed to owning problem %s", got, probs[0].Name)
	}
}

package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/loopnest"
	"repro/internal/obs"
)

// diskRecordProblem is a problem small enough to solve in every fuzz
// worker's setup.
func diskRecordProblem() (*loopnest.Problem, Options) {
	return loopnest.MatMul(8, 8, 8), Options{Parallel: 1}
}

// recordPath is the disk-tier file of a solve signature.
func recordPath(dir string, sig cache.Signature) string {
	return filepath.Join(dir, "optimize-"+sig.String()+".json")
}

// solveRecord solves the problem with a disk cache in a fresh
// directory and returns the result and the bytes of its record.
func solveRecord(tb testing.TB, p *loopnest.Problem, opts Options) (*Result, []byte) {
	tb.Helper()
	dir := tb.TempDir()
	opts.Cache = NewSolveCache(cache.Options{Dir: dir})
	res, err := Optimize(p, opts)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(recordPath(dir, SolveSignature(p, opts)))
	if err != nil {
		tb.Fatal(err)
	}
	return res, data
}

// withValue returns the record with its "value" replaced by raw JSON.
func withValue(tb testing.TB, record []byte, value string) []byte {
	tb.Helper()
	var rec map[string]json.RawMessage
	if err := json.Unmarshal(record, &rec); err != nil {
		tb.Fatal(err)
	}
	rec["value"] = json.RawMessage(value)
	out, err := json.Marshal(rec)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// withTrips returns the record with its design's Mapping.Trips replaced
// by raw JSON.
func withTrips(tb testing.TB, record []byte, trips string) []byte {
	tb.Helper()
	// set replaces key in the JSON object data, descending the path
	// first.
	var set func(data []byte, path []string, value json.RawMessage) []byte
	set = func(data []byte, path []string, value json.RawMessage) []byte {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(data, &obj); err != nil {
			tb.Fatal(err)
		}
		if len(path) > 1 {
			value = set(obj[path[0]], path[1:], value)
		}
		obj[path[0]] = value
		out, err := json.Marshal(obj)
		if err != nil {
			tb.Fatal(err)
		}
		return out
	}
	return set(record, []string{"value", "Best", "Mapping", "Trips"}, json.RawMessage(trips))
}

// TestCorruptDiskRecordIsMiss: a disk record that decodes but holds no
// usable design — "value": null or {}, or a design whose mapping has no
// trip rows — must not reach the caller. The run logs it as corrupt,
// counts it, solves afresh with the same result, and rewrites the
// record, which the next process is served from.
func TestCorruptDiskRecordIsMiss(t *testing.T) {
	p, opts := diskRecordProblem()
	want, good := solveRecord(t, p, opts)
	sig := SolveSignature(p, opts)
	for _, c := range []struct {
		name   string
		record []byte
	}{
		{"null", withValue(t, good, "null")},
		{"{}", withValue(t, good, "{}")},
		{"hollow_trips", withTrips(t, good, "[]")},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(recordPath(dir, sig), c.record, 0o644); err != nil {
				t.Fatal(err)
			}
			var logBuf strings.Builder
			o := &obs.Obs{Log: obs.NewLogger(&logBuf, obs.Warn)}
			run := opts
			run.Cache = NewSolveCache(cache.Options{Dir: dir, Obs: o})
			got, err := Optimize(p, run)
			if err != nil {
				t.Fatal(err)
			}
			if got.Stats.FromCache || got.Stats.FreshSolves == 0 {
				t.Errorf("served from the corrupt record: stats %+v", got.Stats)
			}
			if s := run.Cache.Stats(); s.CorruptSkipped != 1 || s.DiskHits != 0 {
				t.Errorf("cache stats %+v, want one corrupt record skipped and no disk hit", s)
			}
			if !strings.Contains(logBuf.String(), "corrupt") {
				t.Errorf("no corruption warning, log %q", logBuf.String())
			}
			if !reflect.DeepEqual(got.Best, want.Best) {
				t.Errorf("re-solved design %+v, want %+v", got.Best, want.Best)
			}
			next := opts
			next.Cache = NewSolveCache(cache.Options{Dir: dir})
			again, err := Optimize(p, next)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Stats.FromCache || !reflect.DeepEqual(again.Best, want.Best) {
				t.Errorf("rewritten record not served: from cache %v", again.Stats.FromCache)
			}
		})
	}
}

// FuzzDiskRecord feeds arbitrary bytes to the disk tier as the record
// of a fixed solve signature. Decoding must never panic, and a hit must
// only ever return a usable design (see Result.Usable). The seeds are a
// real record, the same record with "value": null and {}, and with its
// mapping's trips [], and a real record of a design on a four-level
// memory.
func FuzzDiskRecord(f *testing.F) {
	p, opts := diskRecordProblem()
	_, good := solveRecord(f, p, opts)
	f.Add(good)
	f.Add(withValue(f, good, "null"))
	f.Add(withValue(f, good, "{}"))
	f.Add(withTrips(f, good, "[]"))
	deep := opts
	da := deep3()
	deep.Arch = &da
	_, deepRecord := solveRecord(f, p, deep)
	f.Add(deepRecord)
	sig := SolveSignature(p, opts)
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, record []byte) {
		if err := os.WriteFile(recordPath(dir, sig), record, 0o644); err != nil {
			t.Fatal(err)
		}
		res, hit := NewSolveCache(cache.Options{Dir: dir}).Get(sig)
		if hit && !res.Usable() {
			t.Fatalf("hit returned an unusable result %+v", res)
		}
	})
}

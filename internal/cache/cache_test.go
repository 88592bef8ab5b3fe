package cache

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

func sigOf(s string) Signature {
	return Key{Component: "test", Params: []Param{ParamString("id", s)}}.Signature()
}

type payload struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

func TestDoMemoizes(t *testing.T) {
	c := New[*payload](Options{})
	var solves atomic.Int64
	solve := func() (*payload, error) {
		solves.Add(1)
		return &payload{Name: "a", Value: 42}, nil
	}
	v1, hit1, err := c.Do(sigOf("a"), solve)
	if err != nil || hit1 {
		t.Fatalf("first Do: hit=%v err=%v", hit1, err)
	}
	v2, hit2, err := c.Do(sigOf("a"), solve)
	if err != nil || !hit2 {
		t.Fatalf("second Do: hit=%v err=%v", hit2, err)
	}
	if v1 != v2 {
		t.Error("hit returned a different value")
	}
	if n := solves.Load(); n != 1 {
		t.Errorf("solve ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Stores != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", s.HitRate())
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c := New[*payload](Options{})
	var solves atomic.Int64
	boom := fmt.Errorf("infeasible")
	_, _, err := c.Do(sigOf("e"), func() (*payload, error) {
		solves.Add(1)
		return nil, boom
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	v, hit, err := c.Do(sigOf("e"), func() (*payload, error) {
		solves.Add(1)
		return &payload{Name: "ok"}, nil
	})
	if err != nil || hit || v.Name != "ok" {
		t.Fatalf("retry after error: v=%v hit=%v err=%v", v, hit, err)
	}
	if n := solves.Load(); n != 2 {
		t.Errorf("solve ran %d times, want 2 (errors must not be cached)", n)
	}
}

func TestNilCachePassesThrough(t *testing.T) {
	var c *Cache[*payload]
	var solves int
	v, hit, err := c.Do(sigOf("n"), func() (*payload, error) {
		solves++
		return &payload{Name: "direct"}, nil
	})
	if err != nil || hit || v.Name != "direct" || solves != 1 {
		t.Fatalf("nil Do: v=%v hit=%v err=%v solves=%d", v, hit, err, solves)
	}
	if _, ok := c.Get(sigOf("n")); ok {
		t.Error("nil Get should miss")
	}
	c.Put(sigOf("n"), &payload{})
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil Stats = %+v", s)
	}
	c.WriteStats(&strings.Builder{})
}

func TestLRUEviction(t *testing.T) {
	c := New[int](Options{Capacity: 2})
	c.Put(sigOf("1"), 1)
	c.Put(sigOf("2"), 2)
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := c.Get(sigOf("1")); !ok {
		t.Fatal("expected hit on 1")
	}
	c.Put(sigOf("3"), 3)
	if _, ok := c.Get(sigOf("2")); ok {
		t.Error("2 should have been evicted")
	}
	if _, ok := c.Get(sigOf("1")); !ok {
		t.Error("1 should have survived")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// TestSingleflight: concurrent callers of the same signature block on
// one solve instead of racing.
func TestSingleflight(t *testing.T) {
	c := New[*payload](Options{})
	const workers = 8
	var solves atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do(sigOf("sf"), func() (*payload, error) {
				solves.Add(1)
				close(started) // leader reached the solve
				<-gate         // hold every follower in the wait path
				return &payload{Name: "shared"}, nil
			})
			if err != nil || v.Name != "shared" {
				t.Errorf("worker: v=%v err=%v", v, err)
			}
		}()
	}
	<-started
	close(gate)
	wg.Wait()
	if n := solves.Load(); n != 1 {
		t.Errorf("solve ran %d times, want 1", n)
	}
	s := c.Stats()
	if s.Hits+s.Misses < workers {
		t.Errorf("accounted %d requests, want ≥ %d (stats %+v)", s.Hits+s.Misses, workers, s)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1 := New[*payload](Options{Dir: dir, Component: "optimize"})
	sig := sigOf("disk")
	want := &payload{Name: "persisted", Value: 3.25}
	if _, hit, err := c1.Do(sig, func() (*payload, error) { return want, nil }); hit || err != nil {
		t.Fatalf("prime: hit=%v err=%v", hit, err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "optimize-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("disk records = %v (err %v), want exactly 1", files, err)
	}

	// A fresh cache (fresh process) must serve the entry from disk.
	c2 := New[*payload](Options{Dir: dir, Component: "optimize"})
	v, hit, err := c2.Do(sig, func() (*payload, error) {
		t.Error("solve ran despite a valid disk record")
		return nil, nil
	})
	if err != nil || !hit || *v != *want {
		t.Fatalf("disk hit: v=%+v hit=%v err=%v", v, hit, err)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Errorf("stats = %+v, want DiskHits=1", s)
	}
}

func TestDiskTierSkipsStaleSchemaAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	sig := sigOf("stale")
	c := New[*payload](Options{Dir: dir, Component: "optimize"})

	// A record with an outdated schema tag must be ignored silently.
	stale, _ := json.Marshal(record[*payload]{
		Schema:    "thistle-cache-v0",
		Component: "optimize",
		Signature: sig.String(),
		Value:     &payload{Name: "old-format"},
	})
	path := filepath.Join(dir, "optimize-"+sig.String()+".json")
	if err := os.WriteFile(path, stale, 0o644); err != nil {
		t.Fatal(err)
	}
	v, hit, err := c.Do(sig, func() (*payload, error) { return &payload{Name: "fresh"}, nil })
	if err != nil || hit || v.Name != "fresh" {
		t.Fatalf("stale schema: v=%+v hit=%v err=%v", v, hit, err)
	}

	// A truncated/corrupt record must be skipped with a warning, not
	// fail the run.
	var logBuf strings.Builder
	o := &obs.Obs{Log: obs.NewLogger(&logBuf, obs.Warn)}
	cw := New[*payload](Options{Dir: dir, Component: "optimize", Obs: o})
	sig2 := sigOf("corrupt")
	path2 := filepath.Join(dir, "optimize-"+sig2.String()+".json")
	if err := os.WriteFile(path2, []byte(`{"schema": "thistle-ca`), 0o644); err != nil {
		t.Fatal(err)
	}
	v, hit, err = cw.Do(sig2, func() (*payload, error) { return &payload{Name: "recovered"}, nil })
	if err != nil || hit || v.Name != "recovered" {
		t.Fatalf("corrupt record: v=%+v hit=%v err=%v", v, hit, err)
	}
	if s := cw.Stats(); s.CorruptSkipped != 1 {
		t.Errorf("stats = %+v, want CorruptSkipped=1", s)
	}
	if !strings.Contains(logBuf.String(), "corrupt") {
		t.Errorf("expected a corruption warning, log = %q", logBuf.String())
	}

	// A record whose embedded signature disagrees with its filename is
	// also corruption (e.g. a hand-copied file).
	sig3 := sigOf("mismatch")
	wrong, _ := json.Marshal(record[*payload]{
		Schema:    SchemaVersion,
		Component: "optimize",
		Signature: sigOf("other").String(),
		Value:     &payload{Name: "liar"},
	})
	path3 := filepath.Join(dir, "optimize-"+sig3.String()+".json")
	if err := os.WriteFile(path3, wrong, 0o644); err != nil {
		t.Fatal(err)
	}
	v, hit, err = cw.Do(sig3, func() (*payload, error) { return &payload{Name: "honest"}, nil })
	if err != nil || hit || v.Name != "honest" {
		t.Fatalf("mismatched record: v=%+v hit=%v err=%v", v, hit, err)
	}
}

func TestMetricsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := New[int](Options{Obs: &obs.Obs{Metrics: reg}})
	sig := sigOf("m")
	c.Do(sig, func() (int, error) { return 1, nil })
	c.Do(sig, func() (int, error) { return 1, nil })
	if v := reg.Counter("cache.hit").Value(); v != 1 {
		t.Errorf("cache.hit = %d, want 1", v)
	}
	if v := reg.Counter("cache.miss").Value(); v != 1 {
		t.Errorf("cache.miss = %d, want 1", v)
	}
	if v := reg.Counter("cache.store").Value(); v != 1 {
		t.Errorf("cache.store = %d, want 1", v)
	}
}

// TestStatsManifest: an unused cache is omitted from the manifest
// entirely rather than reported as all-zero.
func TestStatsManifest(t *testing.T) {
	if got := (Stats{}).Manifest(); got != nil {
		t.Fatalf("unused cache produced stats block %+v", got)
	}
	s := Stats{Hits: 3, Misses: 1, Stores: 1}
	got := s.Manifest()
	if got == nil || got.Hits != 3 || got.Misses != 1 || got.HitRate != s.HitRate() {
		t.Fatalf("Stats.Manifest = %+v", got)
	}
}

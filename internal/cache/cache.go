package cache

import (
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/events"
)

// Options configures a Cache. Zero values select defaults.
type Options struct {
	// Capacity bounds the in-memory entry count (default 1024); least
	// recently used entries are evicted beyond it.
	Capacity int
	// Dir, when non-empty, enables the persistent tier: each entry is
	// written as a schema-versioned JSON record under this directory
	// and consulted on in-memory misses. Records with a stale schema
	// tag are ignored; corrupt records (see Usable) are skipped with a
	// warning and rewritten by the next solve.
	Dir string
	// Component namespaces the on-disk file names and metric labels
	// ("optimize", "mapper", "model"). Default "solve".
	Component string
	// Obs receives cache telemetry: cache.hit, cache.miss,
	// cache.singleflight_wait, cache.disk_hit, and cache.store
	// counters plus Warn-level corruption logs. Nil disables it.
	Obs *obs.Obs
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	// Hits counts requests served without running the solver: memory
	// hits, disk hits, and single-flight waits all count.
	Hits int64
	// Misses counts requests that ran the underlying computation.
	Misses int64
	// DiskHits is the subset of Hits served from the persistent tier.
	DiskHits int64
	// SingleflightWaits is the subset of Hits that blocked on another
	// goroutine already solving the same signature.
	SingleflightWaits int64
	// Stores counts freshly computed entries inserted into the cache.
	Stores int64
	// Evictions counts LRU evictions from the in-memory tier.
	Evictions int64
	// CorruptSkipped counts unreadable or mismatched disk records.
	CorruptSkipped int64
	// Entries is the current in-memory entry count.
	Entries int
}

// HitRate returns Hits/(Hits+Misses), or 0 for an unused cache.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Manifest converts the counters for a run manifest's cache block,
// returning nil for an unused cache (so the manifest omits the block).
func (s Stats) Manifest() *events.CacheStats {
	if s.Hits+s.Misses == 0 {
		return nil
	}
	return &events.CacheStats{
		Hits:              s.Hits,
		Misses:            s.Misses,
		DiskHits:          s.DiskHits,
		SingleflightWaits: s.SingleflightWaits,
		Stores:            s.Stores,
		Evictions:         s.Evictions,
		HitRate:           s.HitRate(),
	}
}

// Cache is a concurrency-safe, content-addressed memoization map from
// Signature to V with LRU eviction, single-flight deduplication, and an
// optional persistent JSON tier. The zero-capable nil *Cache is valid:
// every method degrades to a pass-through no-op, so call sites need no
// nil checks. Values handed out on hits are shared — treat them as
// immutable.
type Cache[V any] struct {
	capacity  int
	dir       string
	component string
	o         *obs.Obs

	// Hoisted metric handles; nil no-ops when telemetry is off.
	hitC, missC, waitC, diskC, storeC *obs.Counter

	mu      sync.Mutex
	lru     *list.List                  // guarded by mu; of *entry[V], front = most recent
	index   map[Signature]*list.Element // guarded by mu
	flights map[Signature]*flight[V]    // guarded by mu
	stats   Stats                       // guarded by mu
}

type entry[V any] struct {
	sig Signature
	val V
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache.
func New[V any](opts Options) *Cache[V] {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	if opts.Component == "" {
		opts.Component = "solve"
	}
	return &Cache[V]{
		capacity:  opts.Capacity,
		dir:       opts.Dir,
		component: opts.Component,
		o:         opts.Obs,
		hitC:      opts.Obs.Counter("cache.hit"),
		missC:     opts.Obs.Counter("cache.miss"),
		waitC:     opts.Obs.Counter("cache.singleflight_wait"),
		diskC:     opts.Obs.Counter("cache.disk_hit"),
		storeC:    opts.Obs.Counter("cache.store"),
		lru:       list.New(),
		index:     make(map[Signature]*list.Element),
		flights:   make(map[Signature]*flight[V]),
	}
}

// Do returns the cached value for sig, or runs solve exactly once to
// produce it. Concurrent callers with the same signature block on the
// single in-flight solve instead of racing. The returned hit flag is
// true whenever this caller did not run solve itself (memory hit, disk
// hit, or single-flight wait). Errors are propagated to every waiter
// and never cached. A nil cache runs solve directly.
func (c *Cache[V]) Do(sig Signature, solve func() (V, error)) (V, bool, error) {
	if c == nil {
		v, err := solve()
		return v, false, err
	}
	c.mu.Lock()
	if el, ok := c.index[sig]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		c.stats.Hits++
		c.mu.Unlock()
		c.hitC.Inc()
		return v, true, nil
	}
	if f, ok := c.flights[sig]; ok {
		c.stats.SingleflightWaits++
		c.mu.Unlock()
		c.waitC.Inc()
		<-f.done
		if f.err != nil {
			var zero V
			return zero, false, f.err
		}
		c.hitC.Inc()
		c.mu.Lock()
		c.stats.Hits++
		c.mu.Unlock()
		return f.val, true, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[sig] = f
	c.mu.Unlock()

	// Leader path: consult the persistent tier, then solve.
	v, fromDisk := c.loadDisk(sig)
	var err error
	if !fromDisk {
		v, err = solve()
	}
	c.mu.Lock()
	delete(c.flights, sig)
	if err == nil {
		c.insertLocked(sig, v)
		if fromDisk {
			c.stats.Hits++
			c.stats.DiskHits++
		} else {
			c.stats.Misses++
			c.stats.Stores++
		}
	} else {
		c.stats.Misses++
	}
	c.mu.Unlock()
	f.val, f.err = v, err
	close(f.done)
	switch {
	case err != nil:
		c.missC.Inc()
		var zero V
		return zero, false, err
	case fromDisk:
		c.hitC.Inc()
		c.diskC.Inc()
		return v, true, nil
	default:
		c.missC.Inc()
		c.storeC.Inc()
		c.storeDisk(sig, v)
		return v, false, nil
	}
}

// Get returns the in-memory or on-disk value for sig without solving.
func (c *Cache[V]) Get(sig Signature) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	if el, ok := c.index[sig]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		c.stats.Hits++
		c.mu.Unlock()
		c.hitC.Inc()
		return v, true
	}
	c.mu.Unlock()
	if v, ok := c.loadDisk(sig); ok {
		c.mu.Lock()
		c.insertLocked(sig, v)
		c.stats.Hits++
		c.stats.DiskHits++
		c.mu.Unlock()
		c.hitC.Inc()
		c.diskC.Inc()
		return v, true
	}
	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	c.missC.Inc()
	return zero, false
}

// Put inserts a value, also writing it to the persistent tier.
func (c *Cache[V]) Put(sig Signature, v V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.insertLocked(sig, v)
	c.stats.Stores++
	c.mu.Unlock()
	c.storeC.Inc()
	c.storeDisk(sig, v)
}

// insertLocked adds or refreshes an entry; caller holds c.mu.
func (c *Cache[V]) insertLocked(sig Signature, v V) {
	if el, ok := c.index[sig]; ok {
		el.Value.(*entry[V]).val = v
		c.lru.MoveToFront(el)
		return
	}
	c.index[sig] = c.lru.PushFront(&entry[V]{sig: sig, val: v})
	for c.lru.Len() > c.capacity {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.index, back.Value.(*entry[V]).sig)
		c.stats.Evictions++
	}
}

// Stats snapshots the effectiveness counters.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.lru.Len()
	return s
}

// WriteStats renders the counters as an aligned text block.
func (c *Cache[V]) WriteStats(w io.Writer) {
	s := c.Stats()
	name := "solve"
	if c != nil {
		name = c.component
	}
	fmt.Fprintf(w, "--- %s cache ---\n", name)
	fmt.Fprintf(w, "hits                 %d\n", s.Hits)
	fmt.Fprintf(w, "  disk hits          %d\n", s.DiskHits)
	fmt.Fprintf(w, "  singleflight waits %d\n", s.SingleflightWaits)
	fmt.Fprintf(w, "misses               %d\n", s.Misses)
	fmt.Fprintf(w, "hit rate             %.1f%%\n", 100*s.HitRate())
	fmt.Fprintf(w, "entries              %d (stores %d, evictions %d)\n", s.Entries, s.Stores, s.Evictions)
	if s.CorruptSkipped > 0 {
		fmt.Fprintf(w, "corrupt skipped      %d\n", s.CorruptSkipped)
	}
}

// Usable is implemented by cached value types that can tell a complete
// value from a hollow one. A disk record that decodes cleanly but whose
// value is not usable — "value": null, or {} where the type needs
// nested fields — is corrupt like one with bad JSON: skipped with a
// warning, counted in Stats.CorruptSkipped, and treated as a miss, so
// the caller re-solves and rewrites it. Values of other types are
// taken as decoded.
type Usable interface {
	Usable() bool
}

// record is the on-disk JSON envelope. The schema tag gates decoding:
// records written by an incompatible format are ignored, not decoded.
type record[V any] struct {
	Schema    string `json:"schema"`
	Component string `json:"component"`
	Signature string `json:"signature"`
	Value     V      `json:"value"`
}

// path returns the record file for a signature.
func (c *Cache[V]) path(sig Signature) string {
	return filepath.Join(c.dir, c.component+"-"+sig.String()+".json")
}

// loadDisk reads a persistent record. Any failure — unreadable file,
// bad JSON, stale schema, signature mismatch, unusable value — degrades
// to a miss; corruption (as opposed to absence or staleness) is logged
// at Warn.
func (c *Cache[V]) loadDisk(sig Signature) (V, bool) {
	var zero V
	if c.dir == "" {
		return zero, false
	}
	path := c.path(sig)
	data, err := os.ReadFile(path)
	if err != nil {
		return zero, false
	}
	var rec record[V]
	if err := json.Unmarshal(data, &rec); err != nil {
		c.corrupt(path, fmt.Sprintf("bad JSON: %v", err))
		return zero, false
	}
	if rec.Schema != SchemaVersion {
		// A stale (or future) format: silently ignore, never decode.
		return zero, false
	}
	if rec.Signature != sig.String() || rec.Component != c.component {
		c.corrupt(path, "signature/component mismatch")
		return zero, false
	}
	if u, ok := any(rec.Value).(Usable); ok && !u.Usable() {
		c.corrupt(path, "no usable value")
		return zero, false
	}
	return rec.Value, true
}

// storeDisk writes a persistent record atomically (temp file + rename)
// so concurrent processes sharing a cache directory never observe a
// torn record. Write failures are logged and otherwise ignored: the
// disk tier is an optimization, not a correctness requirement.
func (c *Cache[V]) storeDisk(sig Signature, v V) {
	if c.dir == "" {
		return
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		c.o.Logf(obs.Warn, "cache: create dir %s: %v", c.dir, err)
		return
	}
	data, err := json.Marshal(record[V]{
		Schema:    SchemaVersion,
		Component: c.component,
		Signature: sig.String(),
		Value:     v,
	})
	if err != nil {
		c.o.Logf(obs.Warn, "cache: encode %s: %v", sig.Short(), err)
		return
	}
	path := c.path(sig)
	tmp, err := os.CreateTemp(c.dir, "."+c.component+"-*.tmp")
	if err != nil {
		c.o.Logf(obs.Warn, "cache: write %s: %v", path, err)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; the warning carries the write error
		c.o.Logf(obs.Warn, "cache: write %s: %v", path, werr)
	}
}

// corrupt records one skipped disk entry.
func (c *Cache[V]) corrupt(path, why string) {
	c.mu.Lock()
	c.stats.CorruptSkipped++
	c.mu.Unlock()
	c.o.Logf(obs.Warn, "cache: skipping corrupt record %s (%s)", path, why)
}

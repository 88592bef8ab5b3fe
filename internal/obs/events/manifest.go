package events

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// ManifestSchema tags the manifest format, gating decode exactly like
// the event-stream and cache schemas.
const ManifestSchema = "thistle-manifest-v1"

// LayerResult is one optimize outcome row of a manifest: the unit
// tlreport aggregates and diffs. Name repeats when a run optimizes the
// same problem several times (e.g. fig5 solves each layer fixed and
// co-designed); rows are in run order and matched positionally within a
// name by tlreport.
type LayerResult struct {
	Name string `json:"name"`
	// Sig is the solve-cache content signature of the request (hex),
	// tying the row back to internal/cache's addressing.
	Sig          string  `json:"sig,omitempty"`
	EnergyPJ     float64 `json:"energy_pj"`
	Cycles       float64 `json:"cycles"`
	EDP          float64 `json:"edp"`
	EnergyPerMAC float64 `json:"energy_per_mac,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
	PairsSolved  int64   `json:"pairs_solved,omitempty"`
	FreshSolves  int64   `json:"fresh_solves,omitempty"`
	Candidates   int64   `json:"candidates,omitempty"`
	FromCache    bool    `json:"from_cache,omitempty"`
	// Reused marks a row fanned out by cross-layer dedup rather than
	// solved (core.OptimizeLayers signature groups).
	Reused bool  `json:"reused,omitempty"`
	WallUS int64 `json:"wall_us,omitempty"`
}

// Totals aggregates the per-layer rows.
type Totals struct {
	Layers      int     `json:"layers"`
	EnergyPJ    float64 `json:"energy_pj"`
	Cycles      float64 `json:"cycles"`
	EDP         float64 `json:"edp"`
	PairsSolved int64   `json:"pairs_solved"`
	FreshSolves int64   `json:"fresh_solves"`
}

// CacheStats mirrors internal/cache.Stats without importing it, keeping
// this package free of the optimizer's type graph.
type CacheStats struct {
	Hits              int64   `json:"hits"`
	Misses            int64   `json:"misses"`
	DiskHits          int64   `json:"disk_hits,omitempty"`
	SingleflightWaits int64   `json:"singleflight_waits,omitempty"`
	Stores            int64   `json:"stores,omitempty"`
	Evictions         int64   `json:"evictions,omitempty"`
	HitRate           float64 `json:"hit_rate"`
}

// Manifest is the durable record of one run: identity, environment,
// per-layer results, totals, cache effectiveness, and the final metrics
// snapshot (whose histogram rows carry p50/p95/p99). It is written
// atomically (temp file + rename) so readers never observe a partial
// manifest, and loaded tolerantly (corrupt files are reported, not
// misread).
type Manifest struct {
	Schema string `json:"schema"`
	RunID  string `json:"run_id"`
	// RequestID is the client-correlatable request identifier when the
	// run was executed by thistled (the X-Request-ID the response
	// echoed); empty for CLI runs. It is the join key across access
	// logs, traces, and this manifest.
	RequestID string        `json:"request_id,omitempty"`
	Tool      string        `json:"tool"`
	Args      []string      `json:"args,omitempty"`
	GitRev    string        `json:"git_rev,omitempty"`
	GoVersion string        `json:"go_version"`
	StartTime string        `json:"start_time"`
	WallUS    int64         `json:"wall_us"`
	Layers    []LayerResult `json:"layers,omitempty"`
	Totals    Totals        `json:"totals"`
	Cache     *CacheStats   `json:"cache,omitempty"`
	Metrics   *obs.Snapshot `json:"metrics,omitempty"`
}

// ErrCorruptManifest reports an unreadable or schema-mismatched
// manifest file (e.g. a partial write from a crashed run).
var ErrCorruptManifest = errors.New("events: corrupt manifest")

// WriteManifest writes m atomically: the JSON is staged in a temp file
// in the destination directory and renamed into place, so a crash mid-
// write leaves either the previous manifest or none — never a partial
// one at the final path.
func WriteManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir, base := splitPath(path)
	tmp, err := os.CreateTemp(dir, "."+base+"-*.tmp")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), path)
	}
	if werr != nil {
		_ = os.Remove(tmp.Name()) // best-effort cleanup; report the write error
		return werr
	}
	return nil
}

func splitPath(path string) (dir, base string) {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i+1], path[i+1:]
		}
	}
	return ".", path
}

// LoadManifest reads and schema-checks one manifest. Partial or
// mangled files return an error wrapping ErrCorruptManifest so callers
// can warn and skip rather than abort a multi-manifest report.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCorruptManifest, path, err)
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("%w: %s: schema %q, want %q", ErrCorruptManifest, path, m.Schema, ManifestSchema)
	}
	return &m, nil
}

// Recorder accumulates a run's manifest from the event stream: it
// implements obs.EventSink and builds per-layer rows from optimize_end
// and mapper_end events, so the layers below the CLI need
// no knowledge of manifests. It also tracks live progress for the
// -status-addr /statusz endpoint. A nil *Recorder is a no-op sink.
type Recorder struct {
	mu    sync.Mutex
	man   Manifest
	start time.Time

	// Live progress for /statusz.
	total   int
	current string
}

// NewRecorder starts a run record, stamping identity and environment.
func NewRecorder(tool string, args []string) *Recorder {
	now := time.Now()
	return &Recorder{
		start: now,
		man: Manifest{
			Schema:    ManifestSchema,
			RunID:     newRunID(now),
			Tool:      tool,
			Args:      args,
			GitRev:    vcsRevision(),
			GoVersion: runtime.Version(),
			StartTime: now.UTC().Format(time.RFC3339),
		},
	}
}

// newRunID builds a unique run identifier: UTC timestamp plus random
// suffix, so IDs sort chronologically and never collide.
func newRunID(now time.Time) string {
	var b [4]byte
	suffix := "00000000"
	if _, err := rand.Read(b[:]); err == nil {
		suffix = hex.EncodeToString(b[:])
	}
	return now.UTC().Format("20060102T150405") + "-" + suffix
}

// vcsRevision is the git revision stamped into the binary by the Go
// toolchain ("" when built without VCS info), read once per process. A
// locally modified tree is marked with a "+dirty" suffix.
var vcsRevision = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return ""
	}
	return rev + dirty
})

// BuildRevision returns the git revision the Go toolchain stamped into
// the running binary — the same value manifests record as git_rev —
// or "" when built without VCS info. CLIs print it for -version so a
// trace file or manifest can be correlated to a build from the command
// line alone.
func BuildRevision() string { return vcsRevision() }

// SetRequestID stamps the serving-layer request identifier onto the
// run record (no-op on a nil receiver). Call it before StartFields or
// Finish so the ID reaches both the event stream and the manifest.
func (r *Recorder) SetRequestID(id string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.man.RequestID = id
}

// RunID returns the run's identifier.
func (r *Recorder) RunID() string {
	if r == nil {
		return ""
	}
	return r.man.RunID
}

// StartFields returns the run_start event payload matching this
// record, or nil for a nil receiver.
func (r *Recorder) StartFields() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := map[string]any{
		"run_id":     r.man.RunID,
		"tool":       r.man.Tool,
		"go_version": r.man.GoVersion,
		"git_rev":    r.man.GitRev,
		"args":       r.man.Args,
		"start_time": r.man.StartTime,
	}
	if r.man.RequestID != "" {
		f["request_id"] = r.man.RequestID
	}
	return f
}

// Emit consumes one event, folding row-bearing types into the manifest.
// Implements obs.EventSink.
func (r *Recorder) Emit(typ string, fields map[string]any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch typ {
	case obs.EvLayersTotal:
		r.total = int(fnum(fields, "total"))
	case obs.EvOptimizeStart:
		r.current = fstr(fields, "problem")
	case obs.EvOptimizeEnd:
		if fstr(fields, "status") != "ok" {
			return
		}
		r.man.Layers = append(r.man.Layers, rowFromFields(fields))
	case obs.EvMapperEnd:
		row := rowFromFields(fields)
		row.Name = row.Name + "/mapper"
		r.man.Layers = append(r.man.Layers, row)
	}
}

// rowFromFields decodes the shared row payload of an event.
func rowFromFields(fields map[string]any) LayerResult {
	return LayerResult{
		Name:         fstr(fields, "problem"),
		Sig:          fstr(fields, "sig"),
		EnergyPJ:     fnum(fields, "energy_pj"),
		Cycles:       fnum(fields, "cycles"),
		EDP:          fnum(fields, "edp"),
		EnergyPerMAC: fnum(fields, "energy_per_mac"),
		IPC:          fnum(fields, "ipc"),
		PairsSolved:  int64(fnum(fields, "pairs_solved")),
		FreshSolves:  int64(fnum(fields, "fresh_solves")),
		Candidates:   int64(fnum(fields, "candidates")),
		FromCache:    fbool(fields, "from_cache"),
		Reused:       fbool(fields, "reused"),
		WallUS:       int64(fnum(fields, "wall_us")),
	}
}

// Finish stamps wall time and totals and attaches the optional cache
// stats and metrics snapshot, returning the completed manifest. The
// recorder can keep receiving events afterwards, but they will not be
// reflected in the returned copy.
func (r *Recorder) Finish(cs *CacheStats, metrics *obs.Snapshot) *Manifest {
	if r == nil {
		return &Manifest{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.man.WallUS = time.Since(r.start).Microseconds()
	r.man.Cache = cs
	r.man.Metrics = metrics
	var t Totals
	for _, l := range r.man.Layers {
		t.Layers++
		t.EnergyPJ += l.EnergyPJ
		t.Cycles += l.Cycles
		t.EDP += l.EDP
		t.PairsSolved += l.PairsSolved
		t.FreshSolves += l.FreshSolves
	}
	r.man.Totals = t
	out := r.man
	out.Layers = append([]LayerResult(nil), r.man.Layers...)
	return &out
}

// EndFields returns the run_end event payload for a finished manifest.
func (m *Manifest) EndFields() map[string]any {
	return map[string]any{
		"layers":       int64(m.Totals.Layers),
		"energy_pj":    m.Totals.EnergyPJ,
		"cycles":       m.Totals.Cycles,
		"edp":          m.Totals.EDP,
		"wall_us":      m.WallUS,
		"fresh_solves": m.Totals.FreshSolves,
	}
}

// Status is a point-in-time view of run progress for /statusz.
type Status struct {
	RunID   string        `json:"run_id"`
	Tool    string        `json:"tool"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Total   int           `json:"total_layers"`
	Done    int           `json:"done_layers"`
	Current string        `json:"current,omitempty"`
	Layers  []LayerResult `json:"layers,omitempty"`
}

// Status snapshots live progress.
func (r *Recorder) Status() Status {
	if r == nil {
		return Status{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{
		RunID:   r.man.RunID,
		Tool:    r.man.Tool,
		Elapsed: time.Since(r.start),
		Total:   r.total,
		Done:    len(r.man.Layers),
		Current: r.current,
		Layers:  append([]LayerResult(nil), r.man.Layers...),
	}
}

// fnum reads a numeric field however JSON or the in-process emitter
// typed it.
func fnum(fields map[string]any, key string) float64 {
	switch v := fields[key].(type) {
	case float64:
		return v
	case int64:
		return float64(v)
	case int:
		return float64(v)
	case json.Number:
		f, _ := v.Float64()
		return f
	}
	return 0
}

func fstr(fields map[string]any, key string) string {
	s, _ := fields[key].(string)
	return s
}

func fbool(fields map[string]any, key string) bool {
	b, _ := fields[key].(bool)
	return b
}

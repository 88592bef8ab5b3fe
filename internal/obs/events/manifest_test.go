package events

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func sampleManifest(runID string, edp float64) *Manifest {
	return &Manifest{
		Schema:    ManifestSchema,
		RunID:     runID,
		Tool:      "test",
		GoVersion: "go",
		StartTime: "2026-08-05T00:00:00Z",
		WallUS:    1000,
		Layers: []LayerResult{
			{Name: "l1", EnergyPJ: 10, Cycles: 20, EDP: edp},
			{Name: "l2", EnergyPJ: 30, Cycles: 40, EDP: 1200},
		},
		Totals: Totals{Layers: 2, EnergyPJ: 40, Cycles: 60, EDP: edp + 1200},
	}
}

func TestManifestWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.manifest.json")
	m := sampleManifest("r1", 200)
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.RunID != "r1" || len(got.Layers) != 2 || got.Layers[0].EDP != 200 {
		t.Fatalf("round trip mangled the manifest: %+v", got)
	}
	// No temp files may survive a successful write.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("stray files after atomic write: %v", entries)
	}
}

func TestLoadManifestRejectsPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.manifest.json")
	m := sampleManifest("r1", 200)
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write at the FINAL path (what atomic rename
	// prevents — but a reader must still survive encountering one).
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("partial manifest: got %v, want ErrCorruptManifest", err)
	}
	// LoadManifests must warn and skip it, not abort, when a healthy
	// manifest is also present.
	good := filepath.Join(dir, "good.manifest.json")
	if err := WriteManifest(good, sampleManifest("r2", 300)); err != nil {
		t.Fatal(err)
	}
	var warn strings.Builder
	ms, err := LoadManifests([]string{path, good}, &warn)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].RunID != "r2" {
		t.Fatalf("LoadManifests = %+v", ms)
	}
	if !strings.Contains(warn.String(), "ignoring") {
		t.Fatalf("expected a skip warning, got %q", warn.String())
	}
}

func TestLoadManifestRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(path, []byte(`{"schema":"thistle-manifest-v0","run_id":"r"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("wrong schema: got %v, want ErrCorruptManifest", err)
	}
}

func TestRecorderBuildsManifest(t *testing.T) {
	rec := NewRecorder("test", []string{"-layer", "l1"})
	if rec.RunID() == "" {
		t.Fatal("empty run id")
	}
	rec.Emit(obs.EvLayersTotal, map[string]any{"total": 3})
	rec.Emit(obs.EvOptimizeStart, map[string]any{"problem": "l1"})
	rec.Emit(obs.EvOptimizeEnd, map[string]any{
		"problem": "l1", "status": "ok", "sig": "abc123",
		"energy_pj": 10.0, "cycles": 20.0, "edp": 200.0,
		"pairs_solved": 85, "fresh_solves": 85, "wall_us": 42,
	})
	// Failed optimizes must not become rows.
	rec.Emit(obs.EvOptimizeEnd, map[string]any{"problem": "bad", "status": "error"})
	rec.Emit(obs.EvOptimizeEnd, map[string]any{
		"problem": "l2", "status": "ok", "reused": true, "from": "l1",
		"energy_pj": 10.0, "cycles": 20.0, "edp": 200.0,
	})
	rec.Emit(obs.EvMapperEnd, map[string]any{
		"problem": "l1", "trials": 100, "energy_pj": 15.0, "cycles": 25.0, "edp": 375.0,
	})
	st := rec.Status()
	if st.Total != 3 || st.Done != 3 {
		t.Fatalf("status = %+v", st)
	}
	man := rec.Finish(&CacheStats{Hits: 1, Misses: 1, HitRate: 0.5}, nil)
	if len(man.Layers) != 3 {
		t.Fatalf("got %d rows, want 3: %+v", len(man.Layers), man.Layers)
	}
	if man.Layers[0].Sig != "abc123" || man.Layers[0].PairsSolved != 85 {
		t.Fatalf("optimize row wrong: %+v", man.Layers[0])
	}
	if !man.Layers[1].Reused {
		t.Fatal("reused row not marked")
	}
	if man.Layers[2].Name != "l1/mapper" {
		t.Fatalf("mapper row name = %q", man.Layers[2].Name)
	}
	if man.Totals.Layers != 3 || man.Totals.EnergyPJ != 35 || man.Totals.EDP != 775 {
		t.Fatalf("totals = %+v", man.Totals)
	}
	if man.Cache == nil || man.Cache.HitRate != 0.5 {
		t.Fatalf("cache stats = %+v", man.Cache)
	}
	if man.Schema != ManifestSchema || man.WallUS <= 0 {
		t.Fatalf("manifest identity wrong: %+v", man)
	}
}

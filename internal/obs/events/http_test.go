package events

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestStatusServer(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("solver.solves").Add(3)
	reg.Histogram("solver.solve_duration").Observe(5 * time.Microsecond)
	rec := NewRecorder("test", nil)
	rec.Emit(obs.EvLayersTotal, map[string]any{"total": 2})
	rec.Emit(obs.EvOptimizeEnd, map[string]any{
		"problem": "l1", "status": "ok", "energy_pj": 10.0, "cycles": 20.0, "edp": 200.0,
	})
	rec.Emit(obs.EvOptimizeStart, map[string]any{"problem": "l2"})

	srv, err := StartStatusServer("127.0.0.1:0", reg, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "thistle_solver_solves_total 3") ||
		!strings.Contains(metrics, "thistle_solver_solve_duration_seconds_count 1") {
		t.Fatalf("/metrics:\n%s", metrics)
	}
	statusz := get("/statusz")
	for _, want := range []string{"1/2 layers done", "solving l2", "l1"} {
		if !strings.Contains(statusz, want) {
			t.Fatalf("/statusz missing %q:\n%s", want, statusz)
		}
	}
	if idx := get("/"); !strings.Contains(idx, "/statusz") {
		t.Fatalf("index page:\n%s", idx)
	}
}

package obs

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): counters and gauges as-is, duration histograms
// as cumulative `_bucket{le="..."}` series in seconds plus `_sum` and
// `_count`. Metric names are sanitized to the Prometheus charset
// (dots become underscores) and prefixed with "thistle_". Known metric
// families carry a `# HELP` line (see promHelp). The output is what
// thistled's /metrics endpoint serves.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, c := range s.Counters {
		name := promName(c.Name) + "_total"
		if err := writeHelp(w, name, c.Name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		name := promName(g.Name)
		if err := writeHelp(w, name, g.Name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, g.Value); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		name := promName(h.Name) + "_seconds"
		if err := writeHelp(w, name, h.Name); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
			return err
		}
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			// The bucket covers [LowUS, 2*LowUS) microseconds; its
			// Prometheus upper bound is the exclusive end in seconds.
			hiUS := 2 * b.LowUS
			if hiUS == 0 {
				hiUS = 2
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatSeconds(hiUS), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, float64(h.SumNS)/1e9, name, h.Count); err != nil {
			return err
		}
	}
	return nil
}

// promHelp describes the metric families the optimizer registers, keyed
// by registry name. A key ending in "." is a prefix match for dynamic
// families (per-stage histograms). Unknown names simply get no HELP
// line — the exposition stays valid either way.
var promHelp = map[string]string{
	"serve.requests":             "Optimize requests received",
	"serve.requests_ok":          "Requests answered 200",
	"serve.requests_error":       "Requests answered non-200, including rejections",
	"serve.rejected_queue_full":  "Requests shed with 429 because the admission queue was full",
	"serve.rejected_draining":    "Requests rejected with 503 during drain",
	"serve.deadline_exceeded":    "Requests that exceeded their deadline while queued or solving",
	"serve.in_flight":            "Requests currently executing",
	"serve.queue_depth":          "Requests currently waiting for an execution slot",
	"serve.request.latency":      "Optimize request wall time",
	"cache.hit":                  "Solve cache in-memory hits",
	"cache.miss":                 "Solve cache misses",
	"cache.disk_hit":             "Solve cache persistent-tier hits",
	"cache.singleflight_wait":    "Solves coalesced onto an identical in-flight solve",
	"cache.store":                "Solve results stored into the cache",
	"pipeline.sched.in_flight":   "Leaf compute jobs currently running on the shared scheduler",
	"pipeline.sched.queue_depth": "Leaf compute jobs waiting for a scheduler slot",
	"pipeline.sched.wait":        "Time jobs spent queued before a scheduler slot freed",
	"pipeline.stage.":            "Duration of one optimization pipeline stage",
	"obs.trace.clamped":          "Trace events dropped or clamped by the span limit",
	"core.layers_deduped":        "Workload layers skipped as duplicates of an identical shape",
}

// helpFor resolves a registry name to its HELP text: exact match first,
// then the longest matching "."-terminated prefix.
func helpFor(name string) string {
	if h, ok := promHelp[name]; ok {
		return h
	}
	best := ""
	bestLen := 0
	for k, h := range promHelp {
		if strings.HasSuffix(k, ".") && strings.HasPrefix(name, k) && len(k) > bestLen {
			best, bestLen = h, len(k)
		}
	}
	return best
}

// writeHelp emits a `# HELP` line for known families. HELP text is
// escaped per the exposition format (backslash and newline).
func writeHelp(w io.Writer, promFamily, regName string) error {
	h := helpFor(regName)
	if h == "" {
		return nil
	}
	h = strings.ReplaceAll(h, `\`, `\\`)
	h = strings.ReplaceAll(h, "\n", `\n`)
	_, err := fmt.Fprintf(w, "# HELP %s %s\n", promFamily, h)
	return err
}

// formatSeconds renders a microsecond bound as seconds without
// scientific notation ambiguity ("0.000002", "0.5", "36").
func formatSeconds(us int64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", float64(us)/1e6), "0"), ".")
}

// promName maps a registry metric name onto the Prometheus charset.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("thistle_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestExpositionValidOnRealRegistry is the guard the issue asks for:
// every metric family the optimizer actually registers — including
// names with dots, dashes, and other charset hazards — must render as
// grammatically valid exposition text.
func TestExpositionValidOnRealRegistry(t *testing.T) {
	cases := []struct {
		name string
		fill func(r *Registry)
	}{
		{"serve family", func(r *Registry) {
			r.Counter("serve.requests").Add(5)
			r.Counter("serve.requests_ok").Add(4)
			r.Counter("serve.requests_error").Inc()
			r.Counter("serve.rejected_queue_full").Inc()
			r.Counter("serve.rejected_draining").Inc()
			r.Counter("serve.deadline_exceeded").Inc()
			r.Gauge("serve.in_flight").Set(2)
			r.Gauge("serve.queue_depth").Set(1)
			r.Histogram("serve.request.latency").Observe(3 * time.Millisecond)
		}},
		{"cache and pipeline", func(r *Registry) {
			r.Counter("cache.hit").Add(10)
			r.Counter("cache.miss").Add(3)
			r.Counter("cache.disk_hit").Inc()
			r.Counter("cache.singleflight_wait").Inc()
			r.Counter("cache.store").Add(3)
			r.Gauge("pipeline.sched.in_flight").Set(4)
			r.Gauge("pipeline.sched.queue_depth").Set(0)
			r.Histogram("pipeline.sched.wait").Observe(time.Microsecond)
			r.Histogram("pipeline.stage.solve").Observe(time.Second)
			r.Histogram("pipeline.stage.integerize").Observe(20 * time.Millisecond)
		}},
		{"hostile registry names sanitize to valid families", func(r *Registry) {
			r.Counter("weird-name.with.dots").Inc()
			r.Counter("0starts.with.digit").Inc()
			r.Gauge("spaces in name").Set(1)
			r.Histogram("unicode-αβ.lat").Observe(time.Millisecond)
		}},
		{"empty registry", func(r *Registry) {}},
		{"histogram with wide spread", func(r *Registry) {
			h := r.Histogram("h")
			for _, d := range []time.Duration{0, time.Nanosecond, time.Microsecond,
				50 * time.Microsecond, time.Millisecond, time.Second, time.Hour, 3 * time.Hour} {
				h.Observe(d)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.fill(r)
			var buf bytes.Buffer
			if err := r.Snapshot().WritePrometheus(&buf); err != nil {
				t.Fatal(err)
			}
			if err := ValidateExposition(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("exposition invalid: %v\npayload:\n%s", err, buf.String())
			}
		})
	}
}

func TestHelpLinesPrecedeType(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests").Add(1)
	r.Histogram("serve.request.latency").Observe(time.Millisecond)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, fam := range []string{"thistle_serve_requests_total", "thistle_serve_request_latency_seconds"} {
		hi := strings.Index(out, "# HELP "+fam+" ")
		ti := strings.Index(out, "# TYPE "+fam+" ")
		if hi < 0 {
			t.Fatalf("no HELP for %s in:\n%s", fam, out)
		}
		if ti < hi {
			t.Fatalf("TYPE before HELP for %s in:\n%s", fam, out)
		}
	}
}

func TestHelpForPrefixMatch(t *testing.T) {
	if h := helpFor("pipeline.stage.anything"); h == "" {
		t.Fatal("prefix family pipeline.stage. not matched")
	}
	if h := helpFor("no.such.metric"); h != "" {
		t.Fatalf("unknown metric got help %q", h)
	}
}

func TestValidateExpositionRejectsBadPayloads(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		wantErr string
	}{
		{"bad metric name", "# TYPE bad-name counter\nbad-name 1\n", "invalid metric name"},
		{"sample without type", "orphan 1\n", "without a TYPE"},
		{"duplicate type", "# TYPE a counter\n# TYPE a counter\na 1\n", "duplicate TYPE"},
		{"help after type", "# TYPE a counter\n# HELP a text\na 1\n", "after its TYPE"},
		{"duplicate sample", "# TYPE a counter\na 1\na 2\n", "duplicate sample"},
		{"bad label name", "# TYPE a counter\na{9x=\"v\"} 1\n", "invalid label name"},
		{"unquoted label", "# TYPE a counter\na{x=v} 1\n", "not quoted"},
		{"bucket without le", "# TYPE h histogram\nh_bucket 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", "without le"},
		{"non-cumulative buckets", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "not cumulative"},
		{"le not increasing", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n", "not increasing"},
		{"missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n", "missing +Inf"},
		{"inf mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "!= _count"},
		{"declared no samples", "# TYPE a counter\n", "no samples"},
		{"help without type", "# HELP a text\n", "without a TYPE"},
		{"unparseable value", "# TYPE a counter\na xyz\n", "unparseable value"},
		{"interleaved families", "# TYPE a counter\n# TYPE b counter\nb 1\na 1\n", "interleaved"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateExposition(strings.NewReader(tc.payload))
			if err == nil {
				t.Fatalf("payload accepted:\n%s", tc.payload)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateExpositionAcceptsLabeledFamilies(t *testing.T) {
	payload := `# HELP thistle_example_ratio An example labeled gauge
# TYPE thistle_example_ratio gauge
thistle_example_ratio{slo="availability",window="5m"} 0.5
thistle_example_ratio{slo="availability",window="1h"} 0.25
thistle_example_ratio{slo="latency",window="5m"} 0
thistle_example_ratio{slo="latency",window="1h"} 0
# TYPE thistle_example_events_total counter
thistle_example_events_total{slo="availability",outcome="good"} 99
thistle_example_events_total{slo="availability",outcome="bad"} 1
`
	if err := ValidateExposition(strings.NewReader(payload)); err != nil {
		t.Fatalf("labeled payload rejected: %v", err)
	}
}

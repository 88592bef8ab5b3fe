package main

import (
	"os"
	"testing"
	"time"

	"repro/internal/workloads"
)

// TestMain lets the test binary serve as the reference process, which
// the benchmark starts by running itself again.
func TestMain(m *testing.M) {
	if os.Getenv(refEnv) != "" {
		os.Exit(runReference())
	}
	os.Exit(m.Run())
}

// TestWorkloadsReportEveryMetric runs every workload BENCHMARK.json
// names at toy scale — two small layers, half-second windows, one
// set-up — as a traced run, and checks that it measures every
// end-to-end and per-layer metric the file names, with a unit, and that
// every design it got back was correct.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(runners) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(sp.Workloads), len(runners))
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if m.Unit == "" {
			t.Errorf("metric %s has no unit", m.Name)
		}
	}
	var toy []workloads.Layer
	for _, name := range []string{"resnet18_L11", "yolo9000_L11"} {
		l, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no layer %s", name)
		}
		toy = append(toy, l)
	}
	for _, w := range sp.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			cfg := &config{root: "..", seed: 1, window: time.Second, traced: true, setups: 1, table2: toy, codesign: toy}
			out, err := run(w.Name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, traced := range []bool{false, true} {
				res, err := sp.result(out, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct %t, %d of %d calls failed: %v", res.Correct, res.Failed, res.Attempted, out.notes)
				}
			}
		})
	}
}

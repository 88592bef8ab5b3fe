package mapper

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/workloads"
)

// BenchmarkSearch times the randomized mapper's per-trial cost: one
// thread, a fixed seed and 20,000 trials on resnet18_L10, so every
// iteration draws the same mappings. Each trial is one
// model.Evaluator.Evaluate call; the evaluator is new per search, so the
// count includes building the table of every permutation choice drawn.
// It reports ns/trial.
func BenchmarkSearch(b *testing.B) {
	l, _ := workloads.ByName("resnet18_L10")
	p, err := l.Problem()
	if err != nil {
		b.Fatal(err)
	}
	a := arch.Eyeriss()
	opts := Options{Threads: 1, MaxTrials: 20000, Victory: 20000, Seed: 7}
	var trials int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Search(p, &a, opts)
		if err != nil {
			b.Fatal(err)
		}
		trials += res.Trials
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(trials), "ns/trial")
}

package pipeline

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/model"
	"repro/internal/workloads"
)

func TestPow2Candidates(t *testing.T) {
	got := pow2Candidates(12, 2)
	if len(got) != 2 || got[0] != 8 || got[1] != 16 {
		t.Fatalf("pow2Candidates(12, 2) = %v", got)
	}
	got = pow2Candidates(12, 3)
	if len(got) != 3 || got[0] != 4 || got[2] != 16 {
		t.Fatalf("pow2Candidates(12, 3) = %v", got)
	}
	got = pow2Candidates(0.3, 2)
	for _, v := range got {
		if v < 1 {
			t.Fatalf("pow2Candidates below 1: %v", got)
		}
	}
}

// BenchmarkIntegerizeSearch times one co-design-delay integerize search
// on resnet18_L10: the divisor-ladder search of the best relaxed
// solution, with the GP solves done before the timer starts. Each
// iteration builds a fresh evaluator, as every search of a run pays for
// its own permutation's symbolic volumes. It reports the leaves
// evaluated per search as "candidates".
func BenchmarkIntegerizeSearch(b *testing.B) {
	l, _ := workloads.ByName("resnet18_L10")
	p, err := l.Problem()
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{Criterion: model.MinDelay, Mode: CoDesign, Parallel: 1}.WithDefaults()
	r, err := newRun(context.Background(), p, opts, NewScheduler(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range []stage{enumerateStage{}, formulateStage{}, solveStage{}} {
		if err := st.Run(r); err != nil {
			b.Fatal(err)
		}
	}
	sp := r.solved[0]
	perms := dataflow.StandardPerms(sp.permL1, sp.permSRAM)
	iopt := newIntOptions(opts)
	b.ResetTimer()
	var visited int
	for i := 0; i < b.N; i++ {
		var c *candidate
		c, _, visited = searchIntegerCandidates(model.NewEvaluator(r.nest), r.nest, perms, sp.x, r.av, iopt, opts.Criterion, math.Inf(1))
		if c == nil {
			b.Fatal("no integer design")
		}
	}
	b.ReportMetric(float64(visited), "candidates")
}

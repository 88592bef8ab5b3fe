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

// BenchmarkIntegerizeSearch times one integerize search on
// resnet18_L10: the divisor-ladder search of the best relaxed solution,
// with the GP solves done before the timer starts. "codesign-delay" is
// the co-design delay search (a tiling per leaf times its capacity
// pairs, with the delay bound); "eyeriss-energy" the fixed-Eyeriss
// energy search (one arch, only the PE cap). Each iteration builds a
// fresh evaluator, as every search of a run pays for its own
// permutation's symbolic volumes and factor table. It reports the
// leaves evaluated per search as "candidates".
func BenchmarkIntegerizeSearch(b *testing.B) {
	l, _ := workloads.ByName("resnet18_L10")
	p, err := l.Problem()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"codesign-delay", Options{Criterion: model.MinDelay, Mode: CoDesign, Parallel: 1}},
		{"eyeriss-energy", Options{Criterion: model.MinEnergy, Parallel: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			opts := c.opts.WithDefaults()
			r, err := newRun(context.Background(), p, opts, dataflow.RSAtRegister, NewScheduler(1))
			if err != nil {
				b.Fatal(err)
			}
			for _, st := range []stage{enumerateStage{}, formulateStage{}, solveStage{}} {
				if err := st.Run(r); err != nil {
					b.Fatal(err)
				}
			}
			sp := r.solved[0]
			b.ResetTimer()
			var visited int
			for i := 0; i < b.N; i++ {
				var c *candidate
				c, _, visited = searchIntegerCandidates(model.NewEvaluator(r.nest), r.nest, sp.Perms, sp.X, r.av, opts.NDiv, opts.Criterion, math.Inf(1))
				if c == nil {
					b.Fatal("no integer design")
				}
			}
			b.ReportMetric(float64(visited), "candidates")
		})
	}
}

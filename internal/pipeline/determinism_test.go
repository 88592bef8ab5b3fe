package pipeline

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/workloads"
)

// TestExecuteSchedulingIndependent is the refactor's core promise: the
// selected design point is a pure function of (problem, options), not
// of how wide the scheduler happens to be or how its goroutines
// interleave. A single-token scheduler (strictly sequential leaf work),
// a wide one, and a repeated wide run must all select byte-identical
// results — including the search statistics, which count work, not
// threads.
func TestExecuteSchedulingIndependent(t *testing.T) {
	l, ok := workloads.ByName("resnet18_L9")
	if !ok {
		t.Fatal("unknown layer resnet18_L9")
	}
	p, err := l.Problem()
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Eyeriss()
	run := func(parallel int) *Result {
		t.Helper()
		res, err := Execute(context.Background(),
			p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(1)
	for name, res := range map[string]*Result{
		"parallel=8":        run(8),
		"parallel=8 repeat": run(8),
		"parallel=3":        run(3),
	} {
		if !reflect.DeepEqual(seq.Best, res.Best) {
			t.Errorf("%s: design point differs from sequential run\nseq:  %+v\ngot:  %+v",
				name, seq.Best, res.Best)
		}
		if seq.Stats != res.Stats {
			t.Errorf("%s: stats differ from sequential run\nseq: %+v\ngot: %+v",
				name, seq.Stats, res.Stats)
		}
	}
}

// TestExecuteSharedSchedulerMatchesOwn: attaching a shared scheduler to
// the context (the OptimizeLayers batch path) must not change the
// result either.
func TestExecuteSharedSchedulerMatchesOwn(t *testing.T) {
	p := loopnest.MatMul(128, 128, 128)
	a := arch.Eyeriss()
	opts := Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a, Parallel: 4}
	own, err := Execute(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithScheduler(context.Background(), NewScheduler(2))
	shared, err := Execute(ctx, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(own.Best, shared.Best) || own.Stats != shared.Stats {
		t.Fatalf("shared-scheduler run differs:\nown:    %+v / %+v\nshared: %+v / %+v",
			own.Best, own.Stats, shared.Best, shared.Stats)
	}
}

// TestExecuteAblationsIdentical: warm starts and bound pruning are
// performance switches, not search switches — disabling either (or
// both) must reproduce the default run's design point and statistics
// exactly. Only the split of pairs between Stats.Pruned and the
// per-solve counters may differ. The bound never fires on resnet18_L9
// and does on resnet18_L1, so the test also fails if pruning silently
// stops firing.
func TestExecuteAblationsIdentical(t *testing.T) {
	for _, tc := range []struct {
		layer  string
		prunes bool
	}{
		{"resnet18_L9", false},
		{"resnet18_L1", true},
	} {
		t.Run(tc.layer, func(t *testing.T) {
			l, ok := workloads.ByName(tc.layer)
			if !ok {
				t.Fatalf("unknown layer %s", tc.layer)
			}
			p, err := l.Problem()
			if err != nil {
				t.Fatal(err)
			}
			a := arch.Eyeriss()
			base := Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a, Parallel: 4}
			run := func(opts Options) *Result {
				t.Helper()
				res, err := Execute(context.Background(), p, opts)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			def := run(base)
			if got := def.Stats.Pruned > 0; got != tc.prunes {
				t.Fatalf("default run pruned %d pairs, want pruning to fire: %v", def.Stats.Pruned, tc.prunes)
			}
			for name, opts := range map[string]func(Options) Options{
				"no warm start":    func(o Options) Options { o.DisableWarmStart = true; return o },
				"no bound pruning": func(o Options) Options { o.DisableBoundPruning = true; return o },
				"both off": func(o Options) Options {
					o.DisableWarmStart, o.DisableBoundPruning = true, true
					return o
				},
			} {
				res := run(opts(base))
				if !reflect.DeepEqual(def.Best, res.Best) {
					t.Errorf("%s: design point differs from default run", name)
				}
				ds, rs := def.Stats, res.Stats
				if ds.Pruned != rs.Pruned {
					// Every pair is either pruned or solved. The per-solve
					// counters then cover different pair sets.
					if ds.PairsSolved+ds.Pruned != rs.PairsSolved+rs.Pruned {
						t.Errorf("%s: %d solved + %d pruned pairs, default run %d + %d",
							name, rs.PairsSolved, rs.Pruned, ds.PairsSolved, ds.Pruned)
					}
					ds.PairsSolved, rs.PairsSolved = 0, 0
					ds.FreshSolves, rs.FreshSolves = 0, 0
					ds.Infeasible, rs.Infeasible = 0, 0
					ds.Suboptimal, rs.Suboptimal = 0, 0
				}
				ds.Pruned, rs.Pruned = 0, 0
				ds.NewtonIters, rs.NewtonIters = 0, 0 // iterate counts legitimately differ
				if ds != rs {
					t.Errorf("%s: stats differ from default run\ndef: %+v\ngot: %+v", name, ds, rs)
				}
			}
		})
	}
}

// TestWorkspacePoolSharedScheduler hammers the per-run workspace pool:
// several concurrent Execute calls share one narrow scheduler, so pool
// gets/puts from different runs interleave on the same OS threads. Run
// with -race this is the pool's data-race gate; the results must also
// match an isolated sequential run exactly.
func TestWorkspacePoolSharedScheduler(t *testing.T) {
	l, ok := workloads.ByName("resnet18_L9")
	if !ok {
		t.Fatal("unknown layer resnet18_L9")
	}
	p, err := l.Problem()
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Eyeriss()
	opts := Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a, Parallel: 4}
	want, err := Execute(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := ContextWithScheduler(context.Background(), NewScheduler(3))
	const runs = 4
	results := make([]*Result, runs)
	errs := make([]error, runs)
	done := make(chan int, runs)
	for i := 0; i < runs; i++ {
		go func(i int) {
			results[i], errs[i] = Execute(ctx, p, opts)
			done <- i
		}(i)
	}
	for i := 0; i < runs; i++ {
		<-done
	}
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want.Best, results[i].Best) || want.Stats != results[i].Stats {
			t.Errorf("run %d differs from isolated run", i)
		}
	}
}

// TestExecuteCancelled: a cancelled context must surface promptly as a
// context error, not as a spurious "all classes infeasible".
func TestExecuteCancelled(t *testing.T) {
	p := loopnest.MatMul(256, 256, 256)
	a := arch.Eyeriss()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Execute(ctx, p, Options{Criterion: model.MinEnergy, Mode: FixedArch, Arch: &a})
	if err == nil {
		t.Fatal("expected error from cancelled context")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want a context.Canceled chain", err)
	}
}

package model

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/workloads"
)

// walkProblems returns the problems of the memo's property walks: the
// Table II layers and a matmul.
func walkProblems(t *testing.T) []*loopnest.Problem {
	t.Helper()
	probs, err := workloads.Problems(workloads.All())
	if err != nil {
		t.Fatal(err)
	}
	return append(probs, loopnest.MatMul(24, 36, 60))
}

// tripWalk mutates one mapping of a standard nest the way a tiling
// search does: each free iterator (four trip variables) gets a divisor
// chain R | Q | S | N written over its four standard levels.
type tripWalk struct {
	n    *dataflow.Nest
	rng  *rand.Rand
	free []int
	m    *Mapping
}

func newTripWalk(n *dataflow.Nest, rng *rand.Rand) *tripWalk {
	w := &tripWalk{n: n, rng: rng, m: UniformMapping(n)}
	for it := range n.Prob.Iters {
		if len(n.DimTripVars(it)) == 4 {
			w.free = append(w.free, it)
		}
	}
	for _, li := range []int{dataflow.StandardLevelL1, dataflow.StandardLevelSRAM} {
		act := n.Levels[li].Active
		perm := make([]int, len(act))
		for i, j := range rng.Perm(len(act)) {
			perm[i] = act[j]
		}
		w.m.Perms[li] = perm
	}
	return w
}

func (w *tripWalk) divisor(n int64) int64 {
	ds := loopnest.Divisors(n)
	return ds[w.rng.Intn(len(ds))]
}

// retile gives free iterator it a random divisor chain.
func (w *tripWalk) retile(it int) {
	extent := w.n.Prob.Iters[it].Extent
	s := w.divisor(extent)
	q := w.divisor(s)
	r := w.divisor(q)
	tr := w.m.Trips
	tr[dataflow.StandardLevelReg][it] = r
	tr[dataflow.StandardLevelL1][it] = q / r
	tr[dataflow.StandardLevelSpatial][it] = s / q
	tr[dataflow.StandardLevelSRAM][it] = extent / s
}

// walkArchs are the architectures a walk switches between: fixed ones
// that hold most tilings and ones that reject many, with and without
// NoC energy.
func walkArchs() []arch.Arch {
	noc := arch.Eyeriss()
	noc.Name, noc.Tech.EnergyNoCHop = "eyeriss-noc", 0.5
	tight := arch.Arch{Name: "tight", PEs: 12, Regs: 16, SRAM: 512, Tech: arch.Tech45nm()}
	var out []arch.Arch
	out = append(out, arch.Eyeriss(), noc, tight)
	for _, r := range []int64{64, 256} {
		for _, s := range []int64{8192, 32768} {
			out = append(out, arch.Arch{Name: "codesign", PEs: 256, Regs: r, SRAM: s, Tech: arch.Tech45nm()})
		}
	}
	return out
}

// sameReport reports any Report field of got whose bits differ from
// want's.
func sameReport(got, want *Report) error {
	type field struct {
		name     string
		got, wnt float64
	}
	fs := []field{
		{"Energy", got.Energy, want.Energy},
		{"EnergyPerMAC", got.EnergyPerMAC, want.EnergyPerMAC},
		{"Breakdown.Compute", got.Breakdown.Compute, want.Breakdown.Compute},
		{"Breakdown.RegFile", got.Breakdown.RegFile, want.Breakdown.RegFile},
		{"Breakdown.SRAM", got.Breakdown.SRAM, want.Breakdown.SRAM},
		{"Breakdown.DRAM", got.Breakdown.DRAM, want.Breakdown.DRAM},
		{"Breakdown.NoC", got.Breakdown.NoC, want.Breakdown.NoC},
		{"Cycles", got.Cycles, want.Cycles},
		{"IPC", got.IPC, want.IPC},
		{"Utilization", got.Utilization, want.Utilization},
		{"TrafficSR", got.TrafficSR, want.TrafficSR},
		{"TrafficDS", got.TrafficDS, want.TrafficDS},
		{"RegFootprint", got.RegFootprint, want.RegFootprint},
		{"SRAMFootprint", got.SRAMFootprint, want.SRAMFootprint},
	}
	for _, f := range fs {
		if math.Float64bits(f.got) != math.Float64bits(f.wnt) {
			return fmt.Errorf("%s = %v, want %v", f.name, f.got, f.wnt)
		}
	}
	if got.Ops != want.Ops || got.PEsUsed != want.PEsUsed || !slices.Equal(got.Violations, want.Violations) {
		return fmt.Errorf("ops/PEs/violations %d/%d/%q, want %d/%d/%q",
			got.Ops, got.PEsUsed, got.Violations, want.Ops, want.PEsUsed, want.Violations)
	}
	return nil
}

// TestEvalSessionMatchesFresh walks a memoized session through seeded
// random sequences of mappings of one permutation choice — innermost
// retilings, outer jumps, returns to an earlier tiling, mappings
// CheckTrips rejects, and architecture changes — and checks after every
// step that each Report field equals, bit for bit, a fresh
// Evaluator.Evaluate and the traffic and footprint sums of
// dataflow.Volumes.
func TestEvalSessionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	archs := walkArchs()
	steps := 0
	for _, p := range walkProblems(t) {
		for _, rs := range []dataflow.RSPlacement{dataflow.RSAtRegister, dataflow.RSAtLevel1} {
			n, err := dataflow.StandardNest(p, dataflow.StandardOptions{RS: rs})
			if err != nil {
				t.Fatal(err)
			}
			w := newTripWalk(n, rng)
			if len(w.free) < 2 {
				t.Fatalf("%s: %d free iterators, the walk needs an inner and an outer one", p.Name, len(w.free))
			}
			ev := NewEvaluator(n)
			sess, err := ev.Session(w.m.Perms)
			if err != nil {
				t.Fatal(err)
			}
			vols, err := n.ComputeVolumes(w.m.Perms)
			if err != nil {
				t.Fatal(err)
			}
			inner := w.free[len(w.free)-1]
			var history []*Mapping
			for step := 0; step < 60; step++ {
				a := &archs[rng.Intn(len(archs))]
				var kind string
				switch k := rng.Intn(10); {
				case k < 5:
					kind = "innermost"
					w.retile(inner)
				case k < 7:
					kind = "outer jump"
					for _, it := range w.free[:len(w.free)-1] {
						if rng.Intn(2) == 0 {
							w.retile(it)
						}
					}
					w.retile(w.free[rng.Intn(len(w.free)-1)])
				case k < 9 && len(history) > 0:
					kind = "return"
					w.m = history[rng.Intn(len(history))].Clone()
				default:
					// A rejected mapping retiles the innermost iterator
					// and breaks an outer one's extent. The next step
					// keeps the new innermost tiling and repairs the
					// outer one, so a memo that took the rejected
					// assignment would skip the innermost factors.
					kind = "rejected"
					w.retile(inner)
					outer := w.free[0]
					w.m.Trips[dataflow.StandardLevelSRAM][outer] *= 2
					if _, err := sess.Evaluate(a, w.m); err == nil {
						t.Fatalf("%s step %d: a mapping with a broken extent was accepted", p.Name, step)
					}
					w.m.Trips[dataflow.StandardLevelSRAM][outer] /= 2
				}
				got, err := sess.Evaluate(a, w.m)
				if err != nil {
					t.Fatalf("%s step %d (%s): %v", p.Name, step, kind, err)
				}
				want, err := ev.Evaluate(a, w.m)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameReport(got, want); err != nil {
					t.Fatalf("%s %v step %d (%s) on %s: session differs from fresh: %v", p.Name, rs, step, kind, a.Name, err)
				}
				x := n.Assignment(n.Vars.Len(), w.m.Trips)
				for _, c := range []struct {
					name     string
					got, wnt float64
				}{
					{"TrafficSR", got.TrafficSR, vols.EvalTraffic(0, x)},
					{"TrafficDS", got.TrafficDS, vols.EvalTraffic(1, x)},
					{"RegFootprint", got.RegFootprint, vols.EvalFootprint(0, x)},
					{"SRAMFootprint", got.SRAMFootprint, vols.EvalFootprint(1, x)},
				} {
					if math.Float64bits(c.got) != math.Float64bits(c.wnt) {
						t.Fatalf("%s %v step %d (%s): %s = %v, Volumes gives %v", p.Name, rs, step, kind, c.name, c.got, c.wnt)
					}
				}
				history = append(history, w.m.Clone())
				steps++
			}
		}
	}
	t.Logf("%d steps", steps)
}

// TestEvalSessionSteadyStateAllocs: once a session has seen its first
// mapping, evaluating further mappings allocates nothing, valid or not,
// and neither does finding a cached factor table.
func TestEvalSessionSteadyStateAllocs(t *testing.T) {
	ev, m := matmulSetup(t)
	sess, err := ev.Session(m.Perms)
	if err != nil {
		t.Fatal(err)
	}
	sess.Quick = true
	other := m.Clone()
	other.Trips[0][2], other.Trips[1][2] = 1, 16
	eyeriss := arch.Eyeriss()
	tiny := arch.Arch{Name: "tiny", PEs: 2, Regs: 8, SRAM: 64, Tech: arch.Tech45nm()}
	i := 0
	step := func() {
		mm, a := m, &eyeriss
		if i%2 == 1 {
			mm, a = other, &tiny
		}
		i++
		if _, err := sess.Evaluate(a, mm); err != nil {
			t.Fatal(err)
		}
	}
	step()
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("steady-state Evaluate allocates %v times per call", n)
	}
	// A cached permutation choice is looked up without allocating, as
	// the one-shot Evaluator.Evaluate does on every call.
	if n := testing.AllocsPerRun(100, func() { ev.table(m.Perms) }); n != 0 {
		t.Errorf("a cached table lookup allocates %v times", n)
	}
}

// TestEvaluatorConcurrentSessions shares one Evaluator between
// goroutines that each step their own session over one of several
// permutation choices, and checks every report against a fresh
// evaluation. Run under -race it checks the evaluator's table cache.
func TestEvaluatorConcurrentSessions(t *testing.T) {
	l, _ := workloads.ByName("resnet18_L10")
	p, err := l.Problem()
	if err != nil {
		t.Fatal(err)
	}
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(n)
	archs := walkArchs()
	const workers = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Pairs of goroutines share a permutation choice.
			w := newTripWalk(n, rand.New(rand.NewSource(int64(g/2))))
			w.rng = rand.New(rand.NewSource(int64(100 + g)))
			sess, err := ev.Session(w.m.Perms)
			if err != nil {
				errs[g] = err
				return
			}
			for step := 0; step < 40; step++ {
				w.retile(w.free[w.rng.Intn(len(w.free))])
				a := &archs[w.rng.Intn(len(archs))]
				got, err := sess.Evaluate(a, w.m)
				if err != nil {
					errs[g] = err
					return
				}
				want, err := ev.Evaluate(a, w.m)
				if err != nil {
					errs[g] = err
					return
				}
				if err := sameReport(got, want); err != nil {
					errs[g] = fmt.Errorf("goroutine %d step %d: %v", g, step, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if len(ev.cache) != workers/2 {
		t.Errorf("%d cached permutation choices, want %d", len(ev.cache), workers/2)
	}
}

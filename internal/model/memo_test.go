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

// deepNest builds a nest of three copy levels over p, the shape of a
// four-level memory (registers, per-PE scratchpad, shared SRAM, DRAM)
// with the PE grid above the scratchpad: register tile, register-tile
// loops, scratchpad-tile loops, PE grid, SRAM-tile loops. Kernel loops
// r and s are pinned in the register tile.
func deepNest(p *loopnest.Problem) (*dataflow.Nest, error) {
	var tiled []int
	fixed := map[int]int64{}
	for i, it := range p.Iters {
		switch {
		case it.Extent == 1:
		case it.Name == "r" || it.Name == "s":
			fixed[i] = it.Extent
		default:
			tiled = append(tiled, i)
		}
	}
	l0 := slices.Clone(tiled)
	for it := range fixed {
		l0 = append(l0, it)
	}
	slices.Sort(l0)
	return dataflow.NewNest(p, []dataflow.LevelConfig{
		{Name: "t0", Kind: dataflow.Temporal, Active: l0, Fixed: fixed},
		{Name: "c0", Kind: dataflow.Temporal, Copy: true, Active: tiled},
		{Name: "c1", Kind: dataflow.Temporal, Copy: true, Active: tiled},
		{Name: "pe", Kind: dataflow.Spatial, Active: tiled},
		{Name: "c2", Kind: dataflow.Temporal, Copy: true, Active: tiled},
	})
}

// tripWalk mutates one mapping of a nest the way a tiling search does:
// each free iterator gets a divisor chain over its free levels (on the
// standard nest, R | Q | S | N over its four levels).
type tripWalk struct {
	n    *dataflow.Nest
	rng  *rand.Rand
	free []int
	m    *Mapping
}

func newTripWalk(n *dataflow.Nest, rng *rand.Rand) *tripWalk {
	w := &tripWalk{n: n, rng: rng, m: UniformMapping(n)}
	for it := range n.Prob.Iters {
		if len(n.FreeLevels(it)) > 1 {
			w.free = append(w.free, it)
		}
	}
	for li := range n.Levels {
		if !n.Levels[li].Copy {
			continue
		}
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

// retile gives free iterator it a random divisor chain, drawing the
// cumulative tiles outermost first.
func (w *tripWalk) retile(it int) {
	levels := w.n.FreeLevels(it)
	outer := w.n.Prob.Iters[it].Extent
	for i := len(levels) - 1; i > 0; i-- {
		tile := w.divisor(outer)
		w.m.Trips[levels[i]][it] = outer / tile
		outer = tile
	}
	w.m.Trips[levels[0]][it] = outer
}

// outermost returns the outermost free level of iterator it.
func (w *tripWalk) outermost(it int) int {
	levels := w.n.FreeLevels(it)
	return levels[len(levels)-1]
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

// walkNest is one input of the memo's walks: a nest and, for the
// standard (two-boundary) ones, that Evaluate applies.
type walkNest struct {
	name     string
	n        *dataflow.Nest
	standard bool
}

// walkNests returns the standard nests of every walk problem under
// both r/s placements, then a three-copy-level nest of a strided
// Table II layer.
func walkNests(t *testing.T) []walkNest {
	t.Helper()
	var out []walkNest
	for _, p := range walkProblems(t) {
		for _, rs := range []dataflow.RSPlacement{dataflow.RSAtRegister, dataflow.RSAtLevel1} {
			n, err := dataflow.StandardNest(p, dataflow.StandardOptions{RS: rs})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, walkNest{fmt.Sprintf("%s %v", p.Name, rs), n, true})
		}
	}
	l, _ := workloads.ByName("resnet18_L4")
	p, err := l.Problem()
	if err != nil {
		t.Fatal(err)
	}
	n, err := deepNest(p)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, walkNest{p.Name + " deep", n, false})
}

// TestEvalSessionMatchesFresh walks a memoized session through seeded
// random sequences of mappings of one permutation choice — innermost
// retilings, outer jumps, returns to an earlier tiling, mappings
// CheckTrips rejects, and architecture changes — and checks after every
// step that the session's per-boundary sums equal, bit for bit, the
// traffic and footprint sums of dataflow.Volumes, and on standard nests
// that each Report field equals a fresh Evaluator.Evaluate. The last
// nest has three boundaries, so the memo is checked beyond two.
func TestEvalSessionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	archs := walkArchs()
	steps := 0
	for _, in := range walkNests(t) {
		n := in.n
		w := newTripWalk(n, rng)
		if len(w.free) < 2 {
			t.Fatalf("%s: %d free iterators, the walk needs an inner and an outer one", in.name, len(w.free))
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
		if !in.standard && len(vols.Boundaries) != 3 {
			t.Fatalf("%s: %d boundaries, want 3", in.name, len(vols.Boundaries))
		}
		// step moves the session to w.m and returns its per-boundary
		// sums: on a standard nest through Evaluate (checked against a
		// fresh evaluation) and read from the Report, else from Sums.
		step := func(a *arch.Arch) (traffic, footprint []float64, err error) {
			if !in.standard {
				return sess.Sums(w.m.Trips)
			}
			got, err := sess.Evaluate(a, w.m)
			if err != nil {
				return nil, nil, err
			}
			want, err := ev.Evaluate(a, w.m)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameReport(got, want); err != nil {
				return nil, nil, fmt.Errorf("on %s: session differs from fresh: %v", a.Name, err)
			}
			return []float64{got.TrafficSR, got.TrafficDS}, []float64{got.RegFootprint, got.SRAMFootprint}, nil
		}
		inner := w.free[len(w.free)-1]
		var history []*Mapping
		for i := 0; i < 60; i++ {
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
				w.m.Trips[w.outermost(outer)][outer] *= 2
				if _, _, err := step(a); err == nil {
					t.Fatalf("%s step %d: a mapping with a broken extent was accepted", in.name, i)
				}
				w.m.Trips[w.outermost(outer)][outer] /= 2
			}
			traffic, footprint, err := step(a)
			if err != nil {
				t.Fatalf("%s step %d (%s): %v", in.name, i, kind, err)
			}
			x := n.Assignment(n.Vars.Len(), w.m.Trips)
			for b := range vols.Boundaries {
				for _, c := range []struct {
					name     string
					got, wnt float64
				}{
					{"traffic", traffic[b], vols.EvalTraffic(b, x)},
					{"footprint", footprint[b], vols.EvalFootprint(b, x)},
				} {
					if math.Float64bits(c.got) != math.Float64bits(c.wnt) {
						t.Fatalf("%s step %d (%s): boundary %d %s = %v, Volumes gives %v", in.name, i, kind, b, c.name, c.got, c.wnt)
					}
				}
			}
			history = append(history, w.m.Clone())
			steps++
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

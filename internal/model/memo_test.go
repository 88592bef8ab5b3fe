package model

import (
	"errors"
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

// deepArchs are walkArchs with one intermediate buffer each, the
// architectures of a three-boundary nest: a per-PE scratchpad that
// holds most tilings, one that rejects many, and a shared one (which
// moves the PE grid's boundary for NoC energy).
func deepArchs() []arch.Arch {
	var out []arch.Arch
	for i, a := range walkArchs() {
		buf := arch.Buffer{Name: "spad", Words: 4096, Energy: 0.3, BW: 2, PerPE: true}
		switch i % 3 {
		case 1:
			buf.Words = 24
		case 2:
			buf.PerPE = false
		}
		a.Mid = []arch.Buffer{buf}
		out = append(out, a)
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
	if len(got.Mid) != len(want.Mid) || len(got.Breakdown.Mid) != len(want.Breakdown.Mid) {
		return fmt.Errorf("%d/%d buffers, want %d/%d", len(got.Mid), len(got.Breakdown.Mid), len(want.Mid), len(want.Breakdown.Mid))
	}
	for i := range got.Mid {
		fs = append(fs,
			field{fmt.Sprintf("Mid[%d].Traffic", i), got.Mid[i].Traffic, want.Mid[i].Traffic},
			field{fmt.Sprintf("Mid[%d].Footprint", i), got.Mid[i].Footprint, want.Mid[i].Footprint},
			field{fmt.Sprintf("Breakdown.Mid[%d]", i), got.Breakdown.Mid[i], want.Breakdown.Mid[i]})
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

// walkNest is one input of the memo's walks: a nest and the
// architectures its mappings are priced on.
type walkNest struct {
	name  string
	n     *dataflow.Nest
	archs []arch.Arch
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
			out = append(out, walkNest{fmt.Sprintf("%s %v", p.Name, rs), n, walkArchs()})
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
	return append(out, walkNest{p.Name + " deep", n, deepArchs()})
}

// boundarySums reads a report's per-boundary traffic and footprint,
// innermost first.
func boundarySums(r *Report) (traffic, footprint []float64) {
	traffic, footprint = []float64{r.TrafficSR}, []float64{r.RegFootprint}
	for _, b := range r.Mid {
		traffic, footprint = append(traffic, b.Traffic), append(footprint, b.Footprint)
	}
	return append(traffic, r.TrafficDS), append(footprint, r.SRAMFootprint)
}

// TestEvalSessionMatchesFresh walks a memoized session through seeded
// random sequences of mappings of one permutation choice — innermost
// retilings, outer jumps and returns to an earlier tiling — given to it
// by either entry: the generic one (Evaluate, or Sums then Price) or
// the delta one (SetIter on the iterators that changed, sometimes only
// on their changed levels, sometimes also on unchanged ones, then Price
// under one to three architectures). After every step each report must
// equal a fresh Evaluator.Evaluate field by field, bit for bit, and
// its per-boundary sums must equal those of dataflow.Volumes. Input
// that either entry must reject — a broken extent, and a delta set at
// a pinned level — must return ErrBadMapping and leave the memo pricing
// the last accepted mapping. The last nest has three boundaries, so the
// memo is checked beyond two.
func TestEvalSessionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	steps, deltas := 0, 0
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
		if want := 2 + len(in.archs[0].Mid); len(vols.Boundaries) != want {
			t.Fatalf("%s: %d boundaries, want %d", in.name, len(vols.Boundaries), want)
		}
		// check compares a session report of m on a with a fresh
		// evaluation, and its boundary sums with Volumes'.
		check := func(got *Report, a *arch.Arch, m *Mapping) error {
			want, err := ev.Evaluate(a, m)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameReport(got, want); err != nil {
				return fmt.Errorf("on %s: session differs from fresh: %v", a.Name, err)
			}
			traffic, footprint := boundarySums(got)
			x := n.Assignment(n.Vars.Len(), m.Trips)
			for b := range vols.Boundaries {
				if g, v := traffic[b], vols.EvalTraffic(b, x); math.Float64bits(g) != math.Float64bits(v) {
					return fmt.Errorf("boundary %d traffic = %v, Volumes gives %v", b, g, v)
				}
				if g, v := footprint[b], vols.EvalFootprint(b, x); math.Float64bits(g) != math.Float64bits(v) {
					return fmt.Errorf("boundary %d footprint = %v, Volumes gives %v", b, g, v)
				}
			}
			return nil
		}
		randArch := func() *arch.Arch { return &in.archs[rng.Intn(len(in.archs))] }
		// A session that has seen no mapping starts from UniformMapping.
		accepted := w.m.Clone()
		// setDelta moves the session to m through the delta entry.
		setDelta := func(m *Mapping) error {
			for it := range n.Prob.Iters {
				levels := n.FreeLevels(it)
				var set []int
				var trips []int64
				for _, li := range levels {
					if m.Trips[li][it] != accepted.Trips[li][it] || rng.Intn(4) == 0 {
						set = append(set, li)
						trips = append(trips, m.Trips[li][it])
					}
				}
				if len(set) > 0 && rng.Intn(2) == 0 {
					// The whole iterator, changed levels or not.
					set, trips = levels, nil
					for _, li := range levels {
						trips = append(trips, m.Trips[li][it])
					}
				}
				if len(set) == 0 {
					continue
				}
				if err := sess.SetIter(it, set, trips); err != nil {
					return err
				}
				deltas++
			}
			return nil
		}
		inner := w.free[len(w.free)-1]
		var history []*Mapping
		for i := 0; i < 80; i++ {
			entry := rng.Intn(3)
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
				// and breaks an outer one's extent. The step then
				// keeps the new innermost tiling and repairs the
				// outer one, so a memo that took the rejected
				// assignment would skip the innermost factors.
				kind = "rejected"
				w.retile(inner)
				outer := w.free[0]
				ol := w.outermost(outer)
				w.m.Trips[ol][outer] *= 2
				var err error
				switch entry {
				case 0:
					_, err = sess.Evaluate(randArch(), w.m)
				case 1:
					_, _, err = sess.Sums(w.m.Trips)
				default:
					levels := n.FreeLevels(outer)
					trips := make([]int64, len(levels))
					for j, li := range levels {
						trips[j] = w.m.Trips[li][outer]
					}
					err = sess.SetIter(outer, levels, trips)
				}
				if !errors.Is(err, ErrBadMapping) {
					t.Fatalf("%s step %d: entry %d took a mapping with a broken extent: %v", in.name, i, entry, err)
				}
				w.m.Trips[ol][outer] /= 2
				// A delta set at a pinned level is rejected too.
				for _, pin := range n.Pins {
					if err := sess.SetIter(n.IterOfVar(pin.Var), []int{n.LevelOfVar(pin.Var)}, []int64{int64(pin.Value)}); !errors.Is(err, ErrBadMapping) {
						t.Fatalf("%s step %d: a set at pinned level %s was taken: %v", in.name, i, n.Levels[n.LevelOfVar(pin.Var)].Name, err)
					}
				}
				if i > 0 {
					a := randArch()
					got, err := sess.Price(a)
					if err != nil {
						t.Fatal(err)
					}
					if err := check(got, a, accepted); err != nil {
						t.Fatalf("%s step %d: after rejected input: %v", in.name, i, err)
					}
				}
			}
			var reps []*Report
			var archs []*arch.Arch
			price := func(k int) {
				for j := 0; j < k; j++ {
					a := randArch()
					got, err := sess.Price(a)
					if err != nil {
						t.Fatalf("%s step %d (%s): %v", in.name, i, kind, err)
					}
					reps, archs = append(reps, got.Clone()), append(archs, a)
				}
			}
			switch entry {
			case 0:
				a := randArch()
				got, err := sess.Evaluate(a, w.m)
				if err != nil {
					t.Fatalf("%s step %d (%s): %v", in.name, i, kind, err)
				}
				reps, archs = append(reps, got.Clone()), append(archs, a)
			case 1:
				if _, _, err := sess.Sums(w.m.Trips); err != nil {
					t.Fatalf("%s step %d (%s): %v", in.name, i, kind, err)
				}
				price(1)
			default:
				if err := setDelta(w.m); err != nil {
					t.Fatalf("%s step %d (%s): %v", in.name, i, kind, err)
				}
				price(1 + rng.Intn(3))
			}
			for j, got := range reps {
				if err := check(got, archs[j], w.m); err != nil {
					t.Fatalf("%s step %d (%s, entry %d): %v", in.name, i, kind, entry, err)
				}
			}
			accepted = w.m.Clone()
			history = append(history, accepted)
			steps++
		}
	}
	t.Logf("%d steps, %d delta sets", steps, deltas)
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
	// The delta entry: set the tiled iterator, price under both archs.
	levels := ev.Nest.FreeLevels(2)
	tilings := make([][]int64, 2)
	for k, mm := range []*Mapping{m, other} {
		for _, li := range levels {
			tilings[k] = append(tilings[k], mm.Trips[li][2])
		}
	}
	delta := func() {
		if err := sess.SetIter(2, levels, tilings[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
		for _, a := range []*arch.Arch{&eyeriss, &tiny} {
			if _, err := sess.Price(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	delta()
	if n := testing.AllocsPerRun(100, delta); n != 0 {
		t.Errorf("a steady-state delta set and two prices allocate %v times", n)
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

package pipeline

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/model"
	"repro/internal/workloads"
)

// bandKeys lists the permutation keys (L1, SRAM) of a tuple set of the
// standard nest, in order.
func bandKeys(pairs []Solved) [][2][]int {
	keys := make([][2][]int, len(pairs))
	for i, sp := range pairs {
		keys[i] = [2][]int{sp.Perms[dataflow.StandardLevelL1], sp.Perms[dataflow.StandardLevelSRAM]}
	}
	return keys
}

// perturbed returns a shuffled copy of pairs with every objective moved
// by up to four ulps.
func perturbed(rng *rand.Rand, pairs []Solved) []Solved {
	out := slices.Clone(pairs)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		for s := rng.Intn(9) - 4; s != 0; {
			dir := math.Inf(1)
			if s < 0 {
				dir, s = math.Inf(-1), s+1
			} else {
				s--
			}
			out[i].Objective = math.Nextafter(out[i].Objective, dir)
		}
	}
	return out
}

// TestTopBand checks the tie band on synthetic pairs: it holds the k
// best objectives and every tie of the k-th within tol, in permutation-
// key order; a pair just above kth·(1+tol) is left out; and neither a
// shuffle nor a few ulps of noise on any objective changes the set or
// its order.
func TestTopBand(t *testing.T) {
	const k, tol, kth = topClasses, solverTol, 3.52954e8
	pair := func(l1, sram int, obj float64) Solved {
		return Solved{Perms: dataflow.StandardPerms([]int{l1, 0}, []int{sram, 1}), Objective: obj}
	}
	solved := []Solved{
		pair(4, 2, kth*(1+1e-9)), // ties the k-th
		pair(0, 3, kth),          // the k-th
		pair(2, 1, 1e8),
		pair(3, 0, kth*(1+5e-7)), // ties within tol
		pair(1, 4, kth*(1+3e-6)), // outside the band
		pair(0, 1, 2e8),
		pair(3, 3, 9e8),
	}
	want := [][2][]int{{{0, 0}, {1, 1}}, {{0, 0}, {3, 1}}, {{2, 0}, {1, 1}}, {{3, 0}, {0, 1}}, {{4, 0}, {2, 1}}}
	if got := bandKeys(topBand(slices.Clone(solved))); !reflect.DeepEqual(got, want) {
		t.Fatalf("band %v, want %v", got, want)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		if got := bandKeys(topBand(perturbed(rng, solved))); !reflect.DeepEqual(got, want) {
			t.Fatalf("perturbed input %d: band %v, want %v", i, got, want)
		}
	}
	// The band's edge: a pair at kth·(1+tol) is in, the next float out.
	limit := bandLimit(kth, tol)
	edge := []Solved{solved[2], solved[5], solved[1], pair(5, 0, limit), pair(6, 0, math.Nextafter(limit, math.Inf(1)))}
	if got := bandKeys(topBand(edge)); len(got) != 4 || got[3][0][0] != 5 {
		t.Errorf("edge band %v, want the first four pairs, ending with L1 5", got)
	}
	// Fewer pairs than k: all of them.
	if got := topBand(slices.Clone(solved[:2])); len(got) != 2 {
		t.Errorf("band of 2 pairs with k=3 has %d", len(got))
	}
	// Three copy levels (reg, q, q1, p, t): ordered by the innermost
	// copy level's permutation first, the outermost's last.
	deep := func(q, q1, t int) Solved {
		return Solved{Perms: [][]int{nil, {q}, {q1}, nil, {t}}, Objective: 1}
	}
	got := topBand([]Solved{deep(1, 0, 0), deep(0, 1, 0), deep(0, 0, 2), deep(0, 0, 1)})
	var order [][]int
	for _, sp := range got {
		order = append(order, []int{sp.Perms[1][0], sp.Perms[2][0], sp.Perms[4][0]})
	}
	if want := [][]int{{0, 0, 1}, {0, 0, 2}, {0, 1, 0}, {1, 0, 0}}; !reflect.DeepEqual(order, want) {
		t.Errorf("3-level band order %v, want %v", order, want)
	}
}

// TestTieBandDesignRobust runs resnet18_L3 (energy, Eyeriss), whose
// relaxed optima tie across SRAM orders, through the solve stage, then
// integerizes the band of the solved pairs as solved and of shuffled
// copies with a few ulps of noise on every objective. The band, the
// integerized set and its order, and the selected design must be the
// same every time.
func TestTieBandDesignRobust(t *testing.T) {
	l, _ := workloads.ByName("resnet18_L3")
	p, err := l.Problem()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Criterion: model.MinEnergy, Mode: FixedArch, Parallel: 1}.WithDefaults()
	r, err := newRun(context.Background(), p, opts, dataflow.RSAtRegister, NewScheduler(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []stage{enumerateStage{}, formulateStage{}} {
		if err := st.Run(r); err != nil {
			t.Fatal(err)
		}
	}
	solved, err := r.solvePass(false)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		band, cands [][2][]int
		best        DesignPoint
		candidates  int
	}
	finish := func(pairs []Solved) outcome {
		r.solved, r.cands, r.best, r.stats = topBand(pairs), nil, nil, Stats{}
		for _, st := range []stage{integerizeStage{}, validateStage{}, selectStage{}} {
			if err := st.Run(r); err != nil {
				t.Fatal(err)
			}
		}
		var cands [][2][]int
		for _, c := range r.cands {
			cands = append(cands, bandKeys([]Solved{c.pair})[0])
		}
		best := *r.best
		best.GPObjective = 0 // carries the perturbation
		return outcome{bandKeys(r.solved), cands, best, r.stats.Candidates}
	}
	want := finish(slices.Clone(solved))
	if len(want.band) <= topClasses {
		t.Fatalf("band of %d pairs: no tie of the k-th to exercise", len(want.band))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3; i++ {
		if got := finish(perturbed(rng, solved)); !reflect.DeepEqual(got, want) {
			t.Errorf("perturbed run %d differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestPrunableBandEdge checks the bound-pruning test against the tie
// band: a pair whose lower bound ties the k-th within tol may still
// enter the band and must be solved; only one above kth·(1+tol) is
// pruned.
func TestPrunableBandEdge(t *testing.T) {
	const tol, kth = 1e-6, 3.52954e8
	limit := bandLimit(kth, tol)
	for _, c := range []struct {
		lower float64
		want  bool
	}{
		{kth / 2, false},
		{kth, false},
		{math.Nextafter(kth, math.Inf(1)), false},
		{kth * (1 + tol/2), false},
		{limit, false},
		{math.Nextafter(limit, math.Inf(1)), true},
		{kth * (1 + 2*tol), true},
	} {
		if got := prunable(c.lower, kth, tol); got != c.want {
			t.Errorf("prunable(%.17g, kth %g, tol %g) = %v, want %v", c.lower, kth, tol, got, c.want)
		}
	}
	if prunable(1e300, math.Inf(1), tol) {
		t.Error("an infinite threshold (fewer than k seeds) must prune nothing")
	}
}

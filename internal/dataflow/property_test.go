package dataflow

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/loopnest"
)

// divisorsOf returns the sorted divisors of n (test-local to avoid an
// import cycle with the mapper package).
func divisorsOf(n int64) []int64 {
	var out []int64
	for d := int64(1); d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if d != n/d {
				out = append(out, n/d)
			}
		}
	}
	return out
}

// randomTrips factorizes each iterator's tileable extent into the active
// levels uniformly at random.
func randomTrips(rng *rand.Rand, n *Nest) [][]int64 {
	trips := make([][]int64, len(n.Levels))
	for li := range trips {
		trips[li] = make([]int64, len(n.Prob.Iters))
		for it := range trips[li] {
			trips[li][it] = 1
		}
	}
	pinned := make([]int64, len(n.Prob.Iters))
	for i := range pinned {
		pinned[i] = 1
	}
	for _, pin := range n.Pins {
		it := n.IterOfVar(pin.Var)
		li := n.LevelOfVar(pin.Var)
		trips[li][it] = int64(pin.Value)
		pinned[it] *= int64(pin.Value)
	}
	for it, iter := range n.Prob.Iters {
		rest := iter.Extent / pinned[it]
		var free []int
		for li := range n.Levels {
			if n.Levels[li].Trips[it] == -1 {
				continue
			}
			already := false
			for _, pin := range n.Pins {
				if n.IterOfVar(pin.Var) == it && n.LevelOfVar(pin.Var) == li {
					already = true
				}
			}
			if !already {
				free = append(free, li)
			}
		}
		for pos, li := range free {
			if pos == len(free)-1 {
				trips[li][it] = rest
				break
			}
			ds := divisorsOf(rest)
			d := ds[rng.Intn(len(ds))]
			trips[li][it] = d
			rest /= d
		}
	}
	return trips
}

func randomPerm(rng *rand.Rand, active []int) []int {
	p := append([]int(nil), active...)
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// TestQuickTrafficConservation: for random valid mappings of a conv
// layer, the DRAM-boundary traffic of each read-only tensor is at least
// its full size (every element crosses at least once), and the
// read-write tensor moves at least twice its size (read + write-back).
// The SRAM→register traffic is at least the DRAM traffic's share of
// compulsory reads as well — every word consumed must reach registers.
func TestQuickTrafficConservation(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "cons", N: 1, K: 16, C: 8, H: 12, W: 12, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := StandardNest(p, StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trips := randomTrips(rng, n)
		if err := n.CheckTrips(trips); err != nil {
			t.Fatalf("generator produced bad trips: %v", err)
		}
		perms := StandardPerms(
			randomPerm(rng, n.Levels[StandardLevelL1].Active),
			randomPerm(rng, n.Levels[StandardLevelSRAM].Active),
		)
		v, err := n.ComputeVolumes(perms)
		if err != nil {
			return false
		}
		x := n.Assignment(n.Vars.Len(), trips)
		for ti, tensor := range p.Tensors {
			size := float64(p.TensorSize(ti))
			min := size
			if tensor.ReadWrite {
				min = 2 * size
			}
			dram := v.Traffic[1][ti].Eval(x)
			if dram < min-1e-6 {
				t.Logf("tensor %s: DRAM traffic %v < size bound %v (trips %v)", tensor.Name, dram, min, trips)
				return false
			}
			reg := v.Traffic[0][ti].Eval(x)
			if reg <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFootprintsWithinTop: every tensor's SRAM footprint is at most
// its full size, and the register footprint at most the SRAM footprint
// (buffers nest).
func TestQuickFootprintNesting(t *testing.T) {
	p := loopnest.MatMul(48, 36, 60)
	n, err := StandardNest(p, StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trips := randomTrips(rng, n)
		perms := StandardPerms(
			randomPerm(rng, n.Levels[StandardLevelL1].Active),
			randomPerm(rng, n.Levels[StandardLevelSRAM].Active),
		)
		v, err := n.ComputeVolumes(perms)
		if err != nil {
			return false
		}
		x := n.Assignment(n.Vars.Len(), trips)
		for ti := range p.Tensors {
			reg := v.Footprint[0][ti].Eval(x)
			sram := v.Footprint[1][ti].Eval(x)
			top := v.TopFootprint[ti].Eval(x)
			if !(reg >= 1 && reg <= sram+1e-9 && sram <= top+1e-9) {
				t.Logf("tensor %d: reg %v sram %v top %v", ti, reg, sram, top)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRelaxationUpperBounds: the posynomial relaxation never
// underestimates traffic or footprints at integer points.
func TestQuickRelaxationUpperBounds(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "relax", N: 1, K: 8, C: 8, H: 12, W: 12, R: 3, S: 3,
		StrideX: 2, StrideY: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := StandardNest(p, StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		trips := randomTrips(rng, n)
		perms := StandardPerms(
			randomPerm(rng, n.Levels[StandardLevelL1].Active),
			randomPerm(rng, n.Levels[StandardLevelSRAM].Active),
		)
		v, err := n.ComputeVolumes(perms)
		if err != nil {
			return false
		}
		x := n.Assignment(n.Vars.Len(), trips)
		for b := 0; b < 2; b++ {
			if v.SumTraffic(b, true).Eval(x) < v.SumTraffic(b, false).Eval(x)-1e-6 {
				return false
			}
			if v.SumFootprint(b, true).Eval(x) < v.SumFootprint(b, false).Eval(x)-1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

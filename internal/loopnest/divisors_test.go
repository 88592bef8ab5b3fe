package loopnest

import (
	"slices"
	"testing"
)

func TestDivisors(t *testing.T) {
	cases := []struct {
		n    int64
		want []int64
	}{
		{1, []int64{1}},
		{12, []int64{1, 2, 3, 4, 6, 12}},
		{17, []int64{1, 17}},
		{64, []int64{1, 2, 4, 8, 16, 32, 64}},
	}
	for _, c := range cases {
		if got := Divisors(c.n); !slices.Equal(got, c.want) {
			t.Fatalf("Divisors(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestNearestDivisors(t *testing.T) {
	cases := []struct {
		n      int64
		target float64
		k      int
		want   []int64
	}{
		{32, 7, 2, []int64{8, 4}},               // log distance, nearest first
		{12, 0.5, 1, []int64{1}},                // a target below 1 counts as 1
		{12, 1, 99, []int64{1, 2, 3, 4, 6, 12}}, // k clamped to the divisor count
		{4, 2, 3, []int64{2, 1, 4}},             // 1 and 4 tie at ratio 2: the smaller first
	}
	for _, c := range cases {
		if got := NearestDivisors(c.n, c.target, c.k); !slices.Equal(got, c.want) {
			t.Errorf("NearestDivisors(%d, %g, %d) = %v, want %v", c.n, c.target, c.k, got, c.want)
		}
	}
}

// oldTriple is the reference for Ladder's three-level case, the triple
// loop of the standard integerization: SRAM tiles from the extent,
// per-PE tiles from each SRAM tile, register tiles from each per-PE
// tile, as (register, per-PE, SRAM) triples.
func oldTriple(n int64, reg, pe, sram float64, k int) [][]int64 {
	var out [][]int64
	for _, s := range NearestDivisors(n, sram, k) {
		for _, q := range NearestDivisors(s, pe, k) {
			for _, r := range NearestDivisors(q, reg, k) {
				out = append(out, []int64{r, q, s})
			}
		}
	}
	return out
}

func TestLadder(t *testing.T) {
	// One intermediate cumulative tile: the divisors nearest its target,
	// nearest first.
	if got := Ladder(12, []float64{3.4}, 2); !slices.EqualFunc(got, [][]int64{{3}, {4}}, slices.Equal) {
		t.Fatalf("Ladder(12, [3.4], 2) = %v", got)
	}
	// Extent 1: the one all-ones tiling.
	if got := Ladder(1, []float64{2, 3, 4}, 3); !slices.EqualFunc(got, [][]int64{{1, 1, 1}}, slices.Equal) {
		t.Fatalf("Ladder(1, ...) = %v", got)
	}
	// No intermediate levels: one empty vector.
	if got := Ladder(6, nil, 2); len(got) != 1 || len(got[0]) != 0 {
		t.Fatalf("trivial ladder = %v", got)
	}

	byTiles := func(a, b []int64) int { return slices.Compare(a, b) }
	cases := []struct {
		n      int64
		target []float64
		k      int
	}{
		{56, []float64{2.3, 7.9, 27}, 3},
		{349, []float64{1.7, 9, 120}, 2},    // a prime extent
		{1, []float64{1, 1, 1}, 3},          // extent 1
		{64, []float64{0.3, 0.5, 0.9}, 2},   // targets below 1
		{12, []float64{2, 4, 8}, 50},        // width above the divisor count
		{28269, []float64{3, 41, 900}, 3},   // the largest Table II extent
		{224, []float64{1.4, 5.6, 44.8}, 1}, // width 1: one tiling
	}
	for _, c := range cases {
		got := Ladder(c.n, c.target, c.k)
		want := oldTriple(c.n, c.target[0], c.target[1], c.target[2], c.k)
		// Generation order: the outermost tile varies slowest.
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Errorf("Ladder(%d, %v, %d) = %v, want generation order %v", c.n, c.target, c.k, got, want)
		}
		// Sorted, it is the sorted triple loop; and no tiling repeats.
		sorted := slices.Clone(got)
		slices.SortFunc(sorted, byTiles)
		slices.SortFunc(want, byTiles)
		if !slices.EqualFunc(sorted, want, slices.Equal) {
			t.Errorf("Ladder(%d, %v, %d) sorted = %v, want %v", c.n, c.target, c.k, sorted, want)
		}
		for i := 1; i < len(sorted); i++ {
			if slices.Equal(sorted[i], sorted[i-1]) {
				t.Errorf("Ladder(%d, %v, %d) repeats %v", c.n, c.target, c.k, sorted[i])
			}
		}
		// Every vector is a divisor chain of the extent.
		for _, tile := range got {
			outer := c.n
			for i := len(tile) - 1; i >= 0; i-- {
				if tile[i] < 1 || outer%tile[i] != 0 {
					t.Fatalf("Ladder(%d, %v, %d): %v is not a divisor chain", c.n, c.target, c.k, tile)
				}
				outer = tile[i]
			}
		}
	}
}

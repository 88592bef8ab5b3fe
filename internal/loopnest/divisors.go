package loopnest

import (
	"math"
	"slices"
)

// Divisors returns the sorted divisors of n (n ≥ 1). Loop extents are the
// quantities being factored throughout the project — tile sizes divide
// extents — so the helper lives here, below both the mapper and the
// optimization pipeline.
func Divisors(n int64) []int64 {
	var out []int64
	for d := int64(1); d*d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
			if d != n/d {
				out = append(out, n/d)
			}
		}
	}
	// Insertion sort: divisor lists are short and nearly sorted.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// NearestDivisors returns the k divisors of n (n ≥ 1) closest to target
// in log space (ratio distance), nearest first, ties going to the
// smaller divisor: the integer ladder both integerization searches
// round a real tile size onto. A target below 1 counts as 1; k is
// clamped to the number of divisors.
func NearestDivisors(n int64, target float64, k int) []int64 {
	if target < 1 {
		target = 1
	}
	type scored struct {
		v int64
		d float64
	}
	ds := Divisors(n)
	s := make([]scored, len(ds))
	logT := math.Log(target)
	for i, d := range ds {
		s[i] = scored{d, math.Abs(math.Log(float64(d)) - logT)}
	}
	slices.SortFunc(s, func(a, b scored) int {
		// Exact float compare on purpose: a tolerance would break the sort's strict weak ordering.
		if a.d != b.d {
			if a.d < b.d {
				return -1
			}
			return 1
		}
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	for i := range ds {
		ds[i] = s[i].v
	}
	return ds[:min(k, len(ds))]
}

// Ladder returns the divisor-ladder tilings of one iterator of extent n
// over len(target)+1 levels: vectors of cumulative tiles, inner to
// outer, in which the outermost tile is one of the k divisors of n
// nearest target[len(target)-1] and each inner tile one of the k
// divisors of the next-outer tile nearest its own target[i]
// (NearestDivisors). The vectors come in generation order, the
// outermost tile varying slowest, and are distinct: each level's
// candidates are distinct divisors. With no targets the ladder is one
// empty vector.
func Ladder(n int64, target []float64, k int) [][]int64 {
	var out [][]int64
	tile := make([]int64, len(target))
	var rec func(pos int, outer int64)
	rec = func(pos int, outer int64) {
		if pos < 0 {
			out = append(out, slices.Clone(tile))
			return
		}
		for _, d := range NearestDivisors(outer, target[pos], k) {
			tile[pos] = d
			rec(pos-1, d)
		}
	}
	rec(len(target)-1, n)
	return out
}

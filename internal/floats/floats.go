// Package floats holds the float64 comparison helpers the numerical
// packages share. Exact ==/!= between computed float64 values is a
// latent nondeterminism bug in an optimizer whose results must be
// byte-identical across runs and cache tiers — two mathematically equal
// quantities computed along different code paths rarely compare equal —
// so compare through these helpers unless exact identity is the point
// (sort comparators, cache keys).
//
// The helpers use a hybrid tolerance: |a−b| ≤ tol·max(1, |a|, |b|),
// i.e. absolute near zero and relative away from it, which behaves
// sanely across the ~12 orders of magnitude between an energy in pJ
// and a duality gap.
package floats

import "math"

// DefaultTol is the comparison tolerance used by Eq: loose enough to
// absorb accumulation order, tight enough to separate distinct design
// points (solver objectives are solved to ~1e-6 relative gap).
const DefaultTol = 1e-9

// Eq reports whether a and b are equal within DefaultTol.
func Eq(a, b float64) bool { return EqTol(a, b, DefaultTol) }

// EqTol reports whether |a−b| ≤ tol·max(1, |a|, |b|). NaNs are never
// equal to anything; equal infinities are equal.
func EqTol(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= tol*scale
}

// RelDiff returns the growth of new over old as a fraction of |old|:
// (new−old)/|old|. A zero old value yields 0 when new is also zero and
// ±Inf otherwise, so regression gates treat "appeared from nothing" as
// an unbounded regression rather than dividing by zero.
func RelDiff(old, new float64) float64 {
	if old == 0 {
		switch {
		case new == 0:
			return 0
		case new > 0:
			return math.Inf(1)
		default:
			return math.Inf(-1)
		}
	}
	return (new - old) / math.Abs(old)
}

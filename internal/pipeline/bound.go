package pipeline

import (
	"math"

	"repro/internal/dataflow"
	"repro/internal/expr"
)

// boundCtx precomputes the class-independent variable ranges used to
// lower-bound a tuple's GP objective before the full program is built.
// Every class tuple of one search shares the same loop extents, pins,
// and variable envelope; only the traffic polynomials differ. The
// ranges it derives:
//
//   - Free trip variables of iterator i multiply to the iterator's free
//     extent E_i (the extent with pinned trips divided out) and are each
//     at least 1 (hence at most E_i).
//   - Every other variable lies in [1, +Inf), narrowed by the
//     formulation (formulation.Bounds): the delay variable and the
//     architecture envelope.
//
// A boundCtx is immutable after construction and safe for concurrent use.
type boundCtx struct {
	groupOf   []int     // VarID → iterator group index, or −1
	groupExt  []float64 // free extent per group
	groupVars []int     // free trip variables per group
	lo        []float64 // per-variable lower bound (default 1)
	hi        []float64 // per-variable upper bound (default +Inf)
}

// newBoundCtx derives the variable ranges for one search.
func newBoundCtx(nest *dataflow.Nest, form *formulation) *boundCtx {
	n := nest.Vars.Len()
	bc := &boundCtx{
		groupOf: make([]int, n),
		lo:      make([]float64, n),
		hi:      make([]float64, n),
	}
	for i := range bc.groupOf {
		bc.groupOf[i] = -1
		bc.lo[i] = 1
		bc.hi[i] = math.Inf(1)
	}
	pinned := make(map[expr.VarID]float64, len(nest.Pins))
	for _, pin := range nest.Pins {
		pinned[pin.Var] = pin.Value
		// Pinned trips are constant-folded out of the relaxed polynomials;
		// should one survive, its range is a point.
		bc.lo[pin.Var], bc.hi[pin.Var] = pin.Value, pin.Value
	}
	for _, eq := range nest.DimEqualities() {
		ext := float64(eq.Extent)
		free := 0
		for _, v := range eq.Vars {
			if pv, ok := pinned[v]; ok {
				if pv > 0 {
					ext /= pv
				}
				continue
			}
			free++
		}
		if free == 0 || ext < 1 {
			continue
		}
		g := len(bc.groupExt)
		bc.groupExt = append(bc.groupExt, ext)
		bc.groupVars = append(bc.groupVars, free)
		for _, v := range eq.Vars {
			if _, ok := pinned[v]; ok {
				continue
			}
			bc.groupOf[v] = g
		}
	}
	form.Bounds(bc.lo, bc.hi)
	return bc
}

// lowerBound returns a valid lower bound on obj over the GP's feasible
// region by minimizing each monomial independently over the variable
// ranges. For the trip variables of one iterator (product fixed to the
// free extent E, each variable in [1, E]) the monomial's factor
// ∏ v^e is at least E^ē where ē is the minimum exponent across the
// whole group, counting absent variables as exponent 0: writing
// ∏ v^e = E^ē · ∏ v^(e−ē) makes every remaining exponent nonnegative.
// A full chain with uniform exponent e therefore contributes exactly
// E^e — the compulsory "every tensor crosses DRAM at least once" terms
// survive the bound at full strength. Returns −Inf (prune nothing) when
// a negative coefficient sneaks in.
func (bc *boundCtx) lowerBound(obj expr.Poly) float64 {
	nG := len(bc.groupExt)
	cnt := make([]int, nG)
	minE := make([]float64, nG)
	touched := make([]int, 0, nG)
	total := 0.0
	for _, m := range obj {
		if m.Coeff < 0 {
			return math.Inf(-1)
		}
		factor := m.Coeff
		touched = touched[:0]
		for _, t := range m.Terms {
			v, e := t.Var, t.Exp
			if int(v) < len(bc.groupOf) {
				if g := bc.groupOf[v]; g >= 0 {
					if cnt[g] == 0 {
						touched = append(touched, g)
						minE[g] = e
					} else if e < minE[g] {
						minE[g] = e
					}
					cnt[g]++
					continue
				}
			}
			lo, hi := 1.0, math.Inf(1)
			if int(v) < len(bc.lo) {
				lo, hi = bc.lo[v], bc.hi[v]
			}
			if e >= 0 {
				factor *= math.Pow(lo, e)
			} else if math.IsInf(hi, 1) {
				factor = 0
			} else {
				factor *= math.Pow(hi, e)
			}
		}
		for _, g := range touched {
			e := minE[g]
			if cnt[g] < bc.groupVars[g] && e > 0 {
				e = 0
			}
			if e != 0 {
				factor *= math.Pow(bc.groupExt[g], e)
			}
			cnt[g] = 0
		}
		total += factor
	}
	return total
}

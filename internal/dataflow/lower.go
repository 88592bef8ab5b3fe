package dataflow

import (
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/gp"
)

// The geometric-program side of a nest, at any depth, for the
// formulation in internal/pipeline: the PE-count monomial, the
// trip-count constraints, and the trip part of the cold starting point.

// SpatialProduct returns the product of the spatial level's trip
// variables: the number of PEs a mapping occupies.
func (n *Nest) SpatialProduct() expr.Monomial {
	pe := expr.Const(1)
	for _, pv := range n.SpatialTripVars() {
		pe = pe.Mul(expr.MonoPow(1, pv, 1))
	}
	return pe
}

// AddTripConstraints adds the nest's trip-count constraints to prog,
// in this order: one extent equality per iterator (its trips multiply
// to its extent), one equality per pinned trip, and trip ≥ 1 for every
// free trip. Pinned variables are handled purely by equalities: an
// x ≥ 1 barrier constraint on a variable pinned to exactly 1 would
// leave the feasible set with an empty strict interior, defeating the
// barrier method.
func (n *Nest) AddTripConstraints(prog *gp.Program) error {
	for _, eq := range n.DimEqualities() {
		lhs := expr.Const(1)
		for _, v := range eq.Vars {
			lhs = lhs.Mul(expr.MonoPow(1, v, 1))
		}
		name := fmt.Sprintf("extent:%s", n.Prob.Iters[eq.Iter].Name)
		if err := prog.AddMonoEq(name, lhs, expr.Const(float64(eq.Extent))); err != nil {
			return err
		}
	}
	for _, pin := range n.Pins {
		if err := prog.AddMonoEq("pin", expr.MonoPow(1, pin.Var, 1), expr.Const(pin.Value)); err != nil {
			return err
		}
	}
	for it := range n.Prob.Iters {
		for _, v := range n.DimTripVars(it) {
			if n.pinned(v) {
				continue
			}
			if err := prog.AddLowerBound("trip>=1", v, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// TripHint returns a starting point over all of the nest's variables:
// each iterator's extent spread evenly across its trip variables,
// pinned trips at their values, and 1 for every other variable
// (architecture or delay variables registered on the nest's VarSet).
func (n *Nest) TripHint() []float64 {
	x := make([]float64, n.Vars.Len())
	for i := range x {
		x[i] = 1
	}
	for it, iter := range n.Prob.Iters {
		vars := n.DimTripVars(it)
		if len(vars) == 0 {
			continue
		}
		per := math.Pow(float64(iter.Extent), 1/float64(len(vars)))
		for _, v := range vars {
			x[v] = per
		}
	}
	for _, pin := range n.Pins {
		x[pin.Var] = pin.Value
	}
	return x
}

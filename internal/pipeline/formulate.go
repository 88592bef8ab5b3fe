package pipeline

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/gp"
	"repro/internal/model"
)

// archVars holds the symbolic or constant architecture parameters of one
// formulation.
type archVars struct {
	mode Mode
	tech arch.Tech
	// Fixed-architecture constants (FixedArch mode).
	fixed arch.Arch
	// Co-design variables.
	varR, varS, varP expr.VarID
	budget           float64
}

// regCapacity returns the register-capacity bound as a monomial (constant
// or the R variable).
func (av *archVars) regCapacity() expr.Monomial {
	if av.mode == CoDesign {
		return expr.MonoPow(1, av.varR, 1)
	}
	return expr.Const(float64(av.fixed.Regs))
}

func (av *archVars) sramCapacity() expr.Monomial {
	if av.mode == CoDesign {
		return expr.MonoPow(1, av.varS, 1)
	}
	return expr.Const(float64(av.fixed.SRAM))
}

func (av *archVars) peCapacity() expr.Monomial {
	if av.mode == CoDesign {
		return expr.MonoPow(1, av.varP, 1)
	}
	return expr.Const(float64(av.fixed.PEs))
}

// regEnergy returns ε_R as a monomial: σ_R·R (Eq. 4), constant when the
// architecture is fixed.
func (av *archVars) regEnergy() expr.Monomial {
	if av.mode == CoDesign {
		return expr.MonoPow(av.tech.SigmaR, av.varR, 1)
	}
	return expr.Const(av.fixed.RegEnergy())
}

// sramEnergy returns ε_S as a monomial: σ_S·√S (Eq. 4).
func (av *archVars) sramEnergy() expr.Monomial {
	if av.mode == CoDesign {
		return expr.MonoPow(av.tech.SigmaS, av.varS, 0.5)
	}
	return expr.Const(av.fixed.SRAMEnergy())
}

// bufferEnergy returns the per-word energy of buffer b, innermost
// first: the registers, the intermediate buffers, then the SRAM.
func (av *archVars) bufferEnergy(b int) expr.Monomial {
	switch b {
	case 0:
		return av.regEnergy()
	case len(av.fixed.Mid) + 1:
		return av.sramEnergy()
	}
	return expr.Const(av.fixed.Mid[b-1].Energy)
}

// classVolumes holds the relaxed, folded Algorithm 1 polynomials of one
// search, each built once from the only permutation it depends on:
//
//   - boundary b's traffic depends on copy level b's order alone: the
//     levels above multiply it by trip factors no order changes, and
//     the footprint entering copy level b scales every iterator a
//     tensor uses exactly once, whatever the orders below;
//   - footprints depend on no order.
//
// It is read-only once built and shared by every job of the search.
type classVolumes struct {
	// traffic[b][k] is boundary b's traffic under class k of copy level b.
	traffic [][]expr.Poly
	// footprint[b] is boundary b's footprint, and slack[b] its
	// relaxation's worst-case relative overestimate, by which the
	// capacity-slack pass scales the buffer's capacity.
	footprint []expr.Poly
	slack     []float64
}

// newClassVolumes runs Algorithm 1 over the classes of every copy level
// in step — run k takes the k-th class of each level, or its last once
// the level's list is exhausted — so the longest list's length in runs
// covers every class.
func newClassVolumes(nest *dataflow.Nest, classes [][]dataflow.PermClass) (*classVolumes, error) {
	cv := &classVolumes{traffic: make([][]expr.Poly, len(classes))}
	runs := 0
	for b, cs := range classes {
		if len(cs) == 0 {
			return cv, nil // no tuple, no job
		}
		cv.traffic[b] = make([]expr.Poly, len(cs))
		runs = max(runs, len(cs))
	}
	copyLevels := nest.CopyLevels()
	perms := make([][]int, len(nest.Levels))
	for k := range runs {
		for b, cs := range classes {
			perms[copyLevels[b]] = cs[min(k, len(cs)-1)].Perm
		}
		vols, err := nest.ComputeVolumes(perms)
		if err != nil {
			return nil, err
		}
		// Constant-fold pinned trips before relaxing: stride-1 kernel
		// extents become exact posynomials (see Volumes.Folded).
		folded := vols.Folded()
		for b, cs := range classes {
			if k < len(cs) {
				cv.traffic[b][k] = folded.SumTraffic(b, true)
			}
		}
		if k == 0 {
			// The minimal-tiling point: free trips 1, pins at their values.
			ones := nest.Assignment(nest.Vars.Len(), nil)
			for b := range classes {
				foot := folded.SumFootprint(b, true)
				cv.footprint = append(cv.footprint, foot)
				cv.slack = append(cv.slack, relaxSlack(vols, b, foot, ones))
			}
		}
	}
	return cv, nil
}

// formulation is the class search's cost model: it turns the relaxed
// Algorithm 1 polynomials of one class tuple into the paper's Eq. 3 /
// Eq. 5 geometric program, generalized to CNNs via the Algorithm-1
// expressions, on a fixed architecture or with the co-design
// variables. It has one energy term pair, one delay port and one
// capacity per memory boundary, so it serves any number of
// intermediate buffers (arch.Arch.Mid).
type formulation struct {
	nest *dataflow.Nest
	av   *archVars
	crit model.Criterion
	varT expr.VarID // delay variable (MinDelay and MinEDP only)
	ops  float64
}

// Objective returns the relaxed objective of the tuple whose boundary
// b moves traffic[b], innermost first. The search lower-bounds it to
// prune the tuple before its program is built.
func (f *formulation) Objective(traffic []expr.Poly) (expr.Poly, error) {
	av := f.av
	// Total energy per Eq. 3, each boundary's words charged to the
	// buffers on both of its sides:
	//   (4ε_R + ε_op)·N_ops + (ε_R + ε_S)·DVol^{S↔R} + (ε_S + ε_D)·DVol^{D↔S}
	// at depth 2, plus the optional NoC term (see Tech.EnergyNoCHop).
	energy := expr.PolyConst(av.tech.EnergyMAC * f.ops)
	energy = energy.AddMono(av.regEnergy().Mul(expr.Const(4 * f.ops)))
	for b, t := range traffic {
		energy = energy.Add(t.MulMono(av.bufferEnergy(b)))
		if b+1 < len(traffic) {
			energy = energy.Add(t.MulMono(av.bufferEnergy(b + 1)))
		} else {
			energy = energy.Add(t.Scale(av.tech.EnergyDRAM))
		}
	}
	if av.tech.EnergyNoCHop > 0 {
		// Mesh traversal: each word across the PE grid travels ≈ √P
		// hops.
		hop := expr.Const(av.tech.EnergyNoCHop)
		for _, pv := range f.nest.SpatialTripVars() {
			hop = hop.Mul(expr.MonoPow(1, pv, 0.5))
		}
		energy = energy.Add(traffic[av.fixed.SpatialAfter()].MulMono(hop))
	}

	switch f.crit {
	case model.MinEnergy:
		return energy, nil
	case model.MinDelay:
		// minimize T subject to each component delay ≤ T.
		return expr.PolyFrom(expr.MonoPow(1, f.varT, 1)), nil
	case model.MinEDP:
		// minimize energy·T — a posynomial times a monomial is still a
		// posynomial, so the energy-delay product stays DGP-valid.
		return energy.MulMono(expr.MonoPow(1, f.varT, 1)), nil
	}
	return nil, fmt.Errorf("core: unknown criterion %v", f.crit)
}

// Program builds the tuple's constrained program minimizing
// objective: footprint[b] is boundary b's relaxed footprint (the same
// for every tuple), held below the buffer's capacity scaled by
// slack[b] (1 on the strict pass; see classVolumes).
func (f *formulation) Program(objective expr.Poly, traffic, footprint []expr.Poly, slack []float64) (*gp.Program, error) {
	nest, av, varT := f.nest, f.av, f.varT
	prog := gp.New(nest.Vars)
	mid, last := av.fixed.Mid, len(traffic)-1

	// Delay components ≤ T (Section V.B), used by the delay and EDP
	// objectives: compute, then each memory's port, which carries the
	// traffic into and out of it (shared by the PEs when per-PE).
	addDelay := func() error {
		tMono := expr.MonoPow(1, varT, 1)
		peInv := expr.Const(f.ops)
		for _, pv := range nest.SpatialTripVars() {
			peInv = peInv.Mul(expr.MonoPow(1, pv, -1))
		}
		if err := prog.AddLessEq("delay:compute", expr.PolyFrom(peInv), tMono); err != nil {
			return err
		}
		regPort := peInv.Mul(expr.Const(4 / av.tech.BWReg))
		if err := prog.AddLessEq("delay:regfile", expr.PolyFrom(regPort), tMono); err != nil {
			return err
		}
		for i, buf := range mid {
			port := traffic[i].Add(traffic[i+1])
			if buf.PerPE {
				for _, pv := range nest.SpatialTripVars() {
					port = port.MulMono(expr.MonoPow(1, pv, -1))
				}
			}
			if err := prog.AddLessEq("delay:"+buf.Name, port, tMono.Mul(expr.Const(buf.BW))); err != nil {
				return err
			}
		}
		sramTraffic := traffic[last-1].Add(traffic[last])
		if err := prog.AddLessEq("delay:sram", sramTraffic, tMono.Mul(expr.Const(av.tech.BWSRAM))); err != nil {
			return err
		}
		return prog.AddLessEq("delay:dram", traffic[last], tMono.Mul(expr.Const(av.tech.BWDRAM)))
	}

	// Objective, then the delay coupling constraints for the criteria
	// that reference T.
	if err := prog.SetObjective(objective); err != nil {
		return nil, err
	}
	if f.crit == model.MinDelay || f.crit == model.MinEDP {
		if err := addDelay(); err != nil {
			return nil, err
		}
	}

	// Capacity constraints. The posynomial relaxation over-approximates
	// convolution footprints (it drops the negative extent constants), so
	// a strict relaxed bound can render the GP infeasible even when
	// minimal integer tilings fit — e.g. stride-2 layers on tiny register
	// files. The capacity-slack pass (run when every strict GP is
	// infeasible) scales the capacities by the worst-case relative
	// overestimate, which occurs at the all-ones point; exact footprints
	// are re-enforced during integerization either way.
	if err := prog.AddLessEq("cap:registers", footprint[0],
		av.regCapacity().Mul(expr.Const(slack[0]))); err != nil {
		return nil, err
	}
	for i, buf := range mid {
		if err := prog.AddLessEq("cap:"+buf.Name, footprint[i+1],
			expr.Const(float64(buf.Words)*slack[i+1])); err != nil {
			return nil, err
		}
	}
	if err := prog.AddLessEq("cap:sram", footprint[last],
		av.sramCapacity().Mul(expr.Const(slack[last]))); err != nil {
		return nil, err
	}
	if err := prog.AddLessEq("cap:pes", expr.PolyFrom(nest.SpatialProduct()), av.peCapacity()); err != nil {
		return nil, err
	}

	// Co-design: the Eq. 5 area constraint and positivity of the
	// architecture variables.
	if av.mode == CoDesign {
		area := expr.PolyFrom(
			expr.Monomial{Coeff: av.tech.AreaRegister, Terms: []expr.Term{{Var: av.varR, Exp: 1}, {Var: av.varP, Exp: 1}}},
			expr.MonoPow(av.tech.AreaMAC, av.varP, 1),
			expr.MonoPow(av.tech.AreaSRAMWord, av.varS, 1),
		)
		if err := prog.AddLessEq("area", area, expr.Const(av.budget)); err != nil {
			return nil, err
		}
		for _, v := range []expr.VarID{av.varR, av.varS, av.varP} {
			if err := prog.AddLowerBound("arch>=1", v, 1); err != nil {
				return nil, err
			}
		}
	}

	return prog, nest.AddTripConstraints(prog)
}

// Bounds narrows, in lo and hi (indexed by variable), the default range
// [1, +Inf) of the variables that are not trip counts, for the pruning
// bound (see boundCtx): the architecture envelope. The delay
// variable T is at least ops/maxPEs: the compute-delay constraint
// forces T ≥ ops/∏P, and the PE product is capped by the PE capacity
// (fixed arch) or the area budget (co-design). In co-design mode the
// area budget also caps each architecture variable (used only for
// negative exponents, which the current objectives do not produce —
// kept for validity).
func (f *formulation) Bounds(lo, hi []float64) {
	av := f.av
	maxPEs := math.Inf(1)
	if av.mode == CoDesign {
		if av.tech.AreaMAC > 0 {
			hi[av.varP] = av.budget / av.tech.AreaMAC
			maxPEs = hi[av.varP]
		}
		if av.tech.AreaRegister > 0 {
			hi[av.varR] = av.budget / av.tech.AreaRegister
		}
		if av.tech.AreaSRAMWord > 0 {
			hi[av.varS] = av.budget / av.tech.AreaSRAMWord
		}
	} else {
		maxPEs = float64(av.fixed.PEs)
	}
	lo[f.varT] = 0
	if maxPEs > 0 && !math.IsInf(maxPEs, 1) {
		lo[f.varT] = f.ops / maxPEs
	}
}

// relaxSlack returns relaxed/exact footprint at the minimal-tiling point
// for boundary b, the worst-case relative overestimate of the
// posynomial relaxation.
func relaxSlack(vols *dataflow.Volumes, b int, relaxed expr.Poly, ones []float64) float64 {
	exact := vols.EvalFootprint(b, ones)
	if exact <= 0 {
		return 1
	}
	r := relaxed.Eval(ones) / exact
	if r < 1 {
		return 1
	}
	return r
}

// Hint builds a fresh cold starting point for the solver: extents
// spread evenly across levels, Eyeriss-like architecture values, and a
// generous delay.
func (f *formulation) Hint() []float64 {
	x := f.nest.TripHint()
	if f.av.mode == CoDesign {
		x[f.av.varR] = 64
		x[f.av.varS] = 16384
		x[f.av.varP] = 128
	}
	if int(f.varT) < len(x) && f.varT >= 0 {
		x[f.varT] = f.ops
	}
	return x
}

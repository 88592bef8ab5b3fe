package pipeline

import (
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/gp"
	"repro/internal/model"
	"repro/internal/solver"
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

// classVolumes holds the relaxed, folded Algorithm 1 polynomials of one
// run, each built once from the only permutation it depends on:
//
//   - SRAM↔register (boundary-0) traffic depends on the L1 order alone:
//     the levels above multiply it by the spatial and SRAM-level trip
//     factors, which no order changes;
//   - DRAM↔SRAM (boundary-1) traffic depends on the SRAM order alone: the
//     footprint leaving the L1 level scales every iterator a tensor uses
//     exactly once, whatever their order;
//   - footprints depend on neither.
//
// It is read-only once built and shared by every pair job of the run.
type classVolumes struct {
	trafficSR, trafficDS []expr.Poly // per L1 class, per SRAM class
	regFoot, sramFoot    expr.Poly
	// slackR and slackS are the relaxed footprints' worst-case relative
	// overestimates, by which the capacity-slack pass scales the
	// register and SRAM capacities (see finish).
	slackR, slackS float64
}

// newClassVolumes runs Algorithm 1 over the L1 and SRAM classes in step —
// run k takes the k-th class of each list, or its last once a list is
// exhausted — so max(len(l1), len(sram)) runs cover every class.
func newClassVolumes(nest *dataflow.Nest, l1, sram []dataflow.PermClass) (*classVolumes, error) {
	cv := &classVolumes{trafficSR: make([]expr.Poly, len(l1)), trafficDS: make([]expr.Poly, len(sram))}
	if len(l1) == 0 || len(sram) == 0 {
		return cv, nil
	}
	for k := range max(len(l1), len(sram)) {
		vols, err := nest.ComputeVolumes(dataflow.StandardPerms(l1[min(k, len(l1)-1)].Perm, sram[min(k, len(sram)-1)].Perm))
		if err != nil {
			return nil, err
		}
		if len(vols.Boundaries) != 2 {
			return nil, fmt.Errorf("core: nest must have exactly 2 memory boundaries, got %d", len(vols.Boundaries))
		}
		// Constant-fold pinned trips before relaxing: stride-1 kernel
		// extents become exact posynomials (see Volumes.Folded).
		folded := vols.Folded()
		if k < len(l1) {
			cv.trafficSR[k] = folded.SumTraffic(0, true)
		}
		if k < len(sram) {
			cv.trafficDS[k] = folded.SumTraffic(1, true)
		}
		if k == 0 {
			cv.regFoot = folded.SumFootprint(0, true)
			cv.sramFoot = folded.SumFootprint(1, true)
			ones := onesAssignment(nest)
			cv.slackR = relaxSlack(vols, 0, cv.regFoot, ones)
			cv.slackS = relaxSlack(vols, 1, cv.sramFoot, ones)
		}
	}
	return cv, nil
}

// formulation is one geometric program for one permutation-class pair.
// It is built in two steps: newFormulation assembles the objective from
// the run's per-class polynomials (enough to evaluate the cheap pruning
// bound, see boundCtx), and finish lowers everything into the
// constrained program. Pruned pairs never pay for finish.
type formulation struct {
	nest *dataflow.Nest
	cv   *classVolumes
	prog *gp.Program
	av   *archVars
	crit model.Criterion
	varT expr.VarID // delay variable (MinDelay only)

	// The relaxed traffic of the pair's classes (shared with the run's
	// other pairs: read-only) and the objective, used by the pruning
	// bound and the program.
	trafficSR, trafficDS expr.Poly
	objective            expr.Poly
	ops                  float64
}

// buildGP constructs the constrained geometric program for one choice of
// copy-level permutations (the paper's Eq. 3 / Eq. 5 generalized to CNNs
// via the Algorithm-1 expressions). varT is the delay variable, used only
// for the MinDelay criterion.
func buildGP(nest *dataflow.Nest, l1, sram []int, av *archVars, crit model.Criterion, varT expr.VarID, capSlack bool) (*formulation, error) {
	cv, err := newClassVolumes(nest, []dataflow.PermClass{{Perm: l1}}, []dataflow.PermClass{{Perm: sram}})
	if err != nil {
		return nil, err
	}
	f, err := newFormulation(nest, cv, 0, 0, av, crit, varT)
	if err != nil {
		return nil, err
	}
	if err := f.finish(capSlack); err != nil {
		return nil, err
	}
	return f, nil
}

// newFormulation builds the objective of the pair (L1 class l1, SRAM
// class sram) from the run's per-class polynomials, without building the
// full program.
func newFormulation(nest *dataflow.Nest, cv *classVolumes, l1, sram int, av *archVars, crit model.Criterion, varT expr.VarID) (*formulation, error) {
	f := &formulation{
		nest: nest, cv: cv, av: av, crit: crit, varT: varT,
		trafficSR: cv.trafficSR[l1], trafficDS: cv.trafficDS[sram],
		ops: float64(nest.Prob.Ops()),
	}

	// Total energy per Eq. 3:
	//   (4ε_R + ε_op)·N_ops + (ε_R + ε_S)·DVol^{S↔R} + (ε_S + ε_D)·DVol^{D↔S}
	// plus the optional NoC term (see Tech.EnergyNoCHop).
	energy := expr.PolyConst(av.tech.EnergyMAC * f.ops)
	energy = energy.AddMono(av.regEnergy().Mul(expr.Const(4 * f.ops)))
	energy = energy.Add(f.trafficSR.MulMono(av.regEnergy()))
	energy = energy.Add(f.trafficSR.MulMono(av.sramEnergy()))
	energy = energy.Add(f.trafficDS.MulMono(av.sramEnergy()))
	energy = energy.Add(f.trafficDS.Scale(av.tech.EnergyDRAM))
	if av.tech.EnergyNoCHop > 0 {
		// Mesh traversal: each SRAM↔register word travels ≈ √P hops.
		hop := expr.Const(av.tech.EnergyNoCHop)
		for _, pv := range nest.SpatialTripVars() {
			hop = hop.Mul(expr.MonoPow(1, pv, 0.5))
		}
		energy = energy.Add(f.trafficSR.MulMono(hop))
	}

	switch crit {
	case model.MinEnergy:
		f.objective = energy
	case model.MinDelay:
		// minimize T subject to each component delay ≤ T.
		f.objective = expr.PolyFrom(expr.MonoPow(1, varT, 1))
	case model.MinEDP:
		// minimize energy·T — a posynomial times a monomial is still a
		// posynomial, so the energy-delay product stays DGP-valid.
		f.objective = energy.MulMono(expr.MonoPow(1, varT, 1))
	default:
		return nil, fmt.Errorf("core: unknown criterion %v", crit)
	}
	return f, nil
}

// finish lowers the formulation into its constrained geometric program.
func (f *formulation) finish(capSlack bool) error {
	nest, av, varT := f.nest, f.av, f.varT
	prog := gp.New(nest.Vars)
	f.prog = prog

	// Delay components ≤ T (Section V.B), used by the delay and EDP
	// objectives.
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
		sramTraffic := f.trafficSR.Add(f.trafficDS)
		if err := prog.AddLessEq("delay:sram", sramTraffic, tMono.Mul(expr.Const(av.tech.BWSRAM))); err != nil {
			return err
		}
		return prog.AddLessEq("delay:dram", f.trafficDS, tMono.Mul(expr.Const(av.tech.BWDRAM)))
	}

	// Objective (built by newFormulation), then the delay coupling
	// constraints for the criteria that reference T.
	if err := prog.SetObjective(f.objective); err != nil {
		return err
	}
	if f.crit == model.MinDelay || f.crit == model.MinEDP {
		if err := addDelay(); err != nil {
			return err
		}
	}

	// Capacity constraints. The posynomial relaxation over-approximates
	// convolution footprints (it drops the negative extent constants), so
	// a strict relaxed bound can render the GP infeasible even when
	// minimal integer tilings fit — e.g. stride-2 layers on tiny register
	// files. With capSlack (used as a second pass when every strict GP is
	// infeasible), the capacities are scaled by the worst-case relative
	// overestimate, which occurs at the all-ones point; exact footprints
	// are re-enforced during integerization either way.
	slackR, slackS := 1.0, 1.0
	if capSlack {
		slackR, slackS = f.cv.slackR, f.cv.slackS
	}
	if err := prog.AddLessEq("cap:registers", f.cv.regFoot,
		av.regCapacity().Mul(expr.Const(slackR))); err != nil {
		return err
	}
	if err := prog.AddLessEq("cap:sram", f.cv.sramFoot,
		av.sramCapacity().Mul(expr.Const(slackS))); err != nil {
		return err
	}
	peProd := expr.Const(1)
	for _, pv := range nest.SpatialTripVars() {
		peProd = peProd.Mul(expr.MonoPow(1, pv, 1))
	}
	if err := prog.AddLessEq("cap:pes", expr.PolyFrom(peProd), av.peCapacity()); err != nil {
		return err
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
			return err
		}
		for _, v := range []expr.VarID{av.varR, av.varS, av.varP} {
			if err := prog.AddLowerBound("arch>=1", v, 1); err != nil {
				return err
			}
		}
	}

	// Loop-extent equalities: the trip counts of each iterator multiply
	// to its full extent.
	for _, eq := range nest.DimEqualities() {
		lhs := expr.Const(1)
		for _, v := range eq.Vars {
			lhs = lhs.Mul(expr.MonoPow(1, v, 1))
		}
		name := fmt.Sprintf("extent:%s", nest.Prob.Iters[eq.Iter].Name)
		if err := prog.AddMonoEq(name, lhs, expr.Const(float64(eq.Extent))); err != nil {
			return err
		}
	}
	// Pinned trips (untiled loops, placeholders). Pinned variables are
	// handled purely by equalities — adding an x ≥ 1 barrier constraint
	// for a variable pinned to exactly 1 would leave the feasible set
	// with an empty strict interior, defeating the barrier method.
	pinned := map[expr.VarID]bool{}
	for _, pin := range nest.Pins {
		pinned[pin.Var] = true
		if err := prog.AddMonoEq("pin", expr.MonoPow(1, pin.Var, 1), expr.Const(pin.Value)); err != nil {
			return err
		}
	}
	// Free trip counts are at least 1.
	for it := range nest.Prob.Iters {
		for _, v := range nest.DimTripVars(it) {
			if pinned[v] {
				continue
			}
			if err := prog.AddLowerBound("trip>=1", v, 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// onesAssignment builds the minimal-tiling point: every free trip 1,
// pinned trips at their values.
func onesAssignment(nest *dataflow.Nest) []float64 {
	x := make([]float64, nest.Vars.Len())
	for i := range x {
		x[i] = 1
	}
	for _, pin := range nest.Pins {
		x[pin.Var] = pin.Value
	}
	return x
}

// relaxSlack returns relaxed/exact footprint at the minimal-tiling point
// for boundary b (≥ 1), the worst-case relative overestimate of the
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

// hint builds an initial guess: extents spread evenly across levels,
// Eyeriss-like architecture values, and a generous delay.
func (f *formulation) hint() []float64 {
	x := make([]float64, f.nest.Vars.Len())
	for i := range x {
		x[i] = 1
	}
	for it, iter := range f.nest.Prob.Iters {
		vars := f.nest.DimTripVars(it)
		if len(vars) == 0 {
			continue
		}
		per := math.Pow(float64(iter.Extent), 1/float64(len(vars)))
		for _, v := range vars {
			x[v] = per
		}
	}
	for _, pin := range f.nest.Pins {
		x[pin.Var] = pin.Value
	}
	if f.av.mode == CoDesign {
		x[f.av.varR] = 64
		x[f.av.varS] = 16384
		x[f.av.varP] = 128
	}
	if int(f.varT) < len(x) && f.varT >= 0 {
		x[f.varT] = float64(f.nest.Prob.Ops())
	}
	return x
}

// solve runs the GP from the cold analytic hint.
func (f *formulation) solve(opts solver.Options) (gp.Result, error) {
	return f.solveFrom(nil, opts)
}

// solveFrom runs the GP starting from xHint (a point in the original
// positive variables, typically a neighboring pair's solution); nil
// falls back to the cold analytic hint.
func (f *formulation) solveFrom(xHint []float64, opts solver.Options) (gp.Result, error) {
	if xHint == nil {
		xHint = f.hint()
	}
	return f.prog.Solve(xHint, opts)
}

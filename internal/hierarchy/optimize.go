package hierarchy

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/gp"
	"repro/internal/loopnest"
	"repro/internal/solver"
)

// The search constants of OptimizeEnergy.
const (
	// nDiv is the divisor-ladder width per tile variable.
	nDiv = 2
	// topClasses is how many best class combinations are integerized.
	topClasses = 3
	// maxCombos caps the permutation-class cross product.
	maxCombos = 4096
	// maxEvals caps integer-candidate evaluations per combination.
	maxEvals = 1 << 18
	// solverTol is the interior-point method's relative duality gap.
	solverTol = 1e-6
)

// Design is an optimized deep-hierarchy design point.
type Design struct {
	Trips       [][]int64
	Perms       [][]int
	Report      *Report
	GPObjective float64
	// Combos counts the permutation-class combinations solved.
	Combos int
}

// OptimizeEnergy minimizes energy for a problem on a fixed deep
// hierarchy: one geometric program per combination of permutation
// classes across all copy levels, then divisor-ladder integerization
// validated by Evaluate.
func OptimizeEnergy(p *loopnest.Problem, c *Config) (*Design, error) {
	nest, err := BuildNest(p, c)
	if err != nil {
		return nil, err
	}
	copyLevels := CopyLevels(nest)
	syms := dataflow.SymmetricInvolutions(p)

	// Permutation classes per copy level, then their cross product.
	classes := make([][]dataflow.PermClass, len(copyLevels))
	combos := 1
	for i, li := range copyLevels {
		cs, err := nest.EnumerateClasses(li, syms)
		if err != nil {
			return nil, err
		}
		classes[i] = cs
		combos *= len(cs)
	}
	if combos > maxCombos {
		return nil, fmt.Errorf("hierarchy: %d permutation-class combinations exceed the %d cap", combos, maxCombos)
	}

	type solved struct {
		perms     [][]int
		x         []float64
		objective float64
	}
	var sols []solved
	choice := make([]int, len(copyLevels))
	for {
		perms := make([][]int, len(nest.Levels))
		for i, li := range copyLevels {
			perms[li] = classes[i][choice[i]].Perm
		}
		f, err := buildDeepGP(nest, perms, c)
		if err != nil {
			return nil, err
		}
		res, err := f.Solve(hintFor(nest), solver.Options{Tol: solverTol})
		if err != nil {
			return nil, err
		}
		if res.Status != solver.Infeasible {
			sols = append(sols, solved{perms: perms, x: res.X, objective: res.Objective})
		}
		// Odometer.
		k := 0
		for k < len(choice) {
			choice[k]++
			if choice[k] < len(classes[k]) {
				break
			}
			choice[k] = 0
			k++
		}
		if k == len(choice) {
			break
		}
	}
	if len(sols) == 0 {
		return nil, fmt.Errorf("hierarchy: all %d class combinations infeasible", combos)
	}
	sort.Slice(sols, func(i, j int) bool { return sols[i].objective < sols[j].objective })
	top := min(topClasses, len(sols))

	var best *Design
	for _, s := range sols[:top] {
		trips, rep := integerizeDeep(nest, c, s.perms, s.x)
		if rep == nil {
			continue
		}
		if best == nil || rep.Energy < best.Report.Energy {
			best = &Design{
				Trips: trips, Perms: s.perms, Report: rep,
				GPObjective: s.objective, Combos: combos,
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("hierarchy: no integer candidate satisfied the constraints")
	}
	best.Combos = combos
	return best, nil
}

// buildDeepGP assembles the energy GP for the deep nest (the Eq. 3
// pattern generalized over N boundaries).
func buildDeepGP(nest *dataflow.Nest, perms [][]int, c *Config) (*gp.Program, error) {
	vols, err := nest.ComputeVolumes(perms)
	if err != nil {
		return nil, err
	}
	folded := vols.Folded()
	prog := gp.New(nest.Vars)
	ops := float64(nest.Prob.Ops())

	obj := expr.PolyConst((4*c.Buffers[0].Energy + c.MACEnergy) * ops)
	for b := range c.Buffers {
		traffic := folded.SumTraffic(b, true)
		obj = obj.Add(traffic.Scale(c.Buffers[b].Energy + c.outerEnergy(b)))
	}
	if err := prog.SetObjective(obj); err != nil {
		return nil, err
	}
	for b := range c.Buffers {
		foot := folded.SumFootprint(b, true)
		name := fmt.Sprintf("cap:%s", c.Buffers[b].Name)
		if err := prog.AddLessEq(name, foot, expr.Const(float64(c.Buffers[b].Words))); err != nil {
			return nil, err
		}
	}
	peProd := expr.Const(1)
	for _, pv := range nest.SpatialTripVars() {
		peProd = peProd.Mul(expr.MonoPow(1, pv, 1))
	}
	if err := prog.AddLessEq("cap:pes", expr.PolyFrom(peProd), expr.Const(float64(c.PEs))); err != nil {
		return nil, err
	}
	for _, eq := range nest.DimEqualities() {
		lhs := expr.Const(1)
		for _, v := range eq.Vars {
			lhs = lhs.Mul(expr.MonoPow(1, v, 1))
		}
		if err := prog.AddMonoEq("extent", lhs, expr.Const(float64(eq.Extent))); err != nil {
			return nil, err
		}
	}
	pinned := map[expr.VarID]bool{}
	for _, pin := range nest.Pins {
		pinned[pin.Var] = true
		if err := prog.AddMonoEq("pin", expr.MonoPow(1, pin.Var, 1), expr.Const(pin.Value)); err != nil {
			return nil, err
		}
	}
	for it := range nest.Prob.Iters {
		for _, v := range nest.DimTripVars(it) {
			if pinned[v] {
				continue
			}
			if err := prog.AddLowerBound("trip>=1", v, 1); err != nil {
				return nil, err
			}
		}
	}
	return prog, nil
}

func hintFor(nest *dataflow.Nest) []float64 {
	x := make([]float64, nest.Vars.Len())
	for i := range x {
		x[i] = 1
	}
	for it, iter := range nest.Prob.Iters {
		vars := nest.DimTripVars(it)
		if len(vars) == 0 {
			continue
		}
		per := math.Pow(float64(iter.Extent), 1/float64(len(vars)))
		for _, v := range vars {
			x[v] = per
		}
	}
	for _, pin := range nest.Pins {
		x[pin.Var] = pin.Value
	}
	return x
}

// integerizeDeep converts the relaxed solution to integer trips via a
// generalized divisor ladder (outermost cumulative tile inward), streams
// the cross product through Evaluate, and returns the best valid design.
func integerizeDeep(nest *dataflow.Nest, c *Config, perms [][]int, x []float64) ([][]int64, *Report) {
	type dimChoice struct {
		iter   int
		levels []int     // nest levels with free trips, inner to outer
		trips  [][]int64 // candidate trip vectors (parallel to levels)
	}
	var dims []dimChoice
	for it := range nest.Prob.Iters {
		var levels []int
		pinnedLevels := map[int]bool{}
		for _, pin := range nest.Pins {
			if nest.IterOfVar(pin.Var) == it {
				for li := range nest.Levels {
					if nest.Levels[li].Trips[it] == pin.Var {
						pinnedLevels[li] = true
					}
				}
			}
		}
		for li := range nest.Levels {
			if nest.Levels[li].Trips[it] != expr.NoVar && !pinnedLevels[li] {
				levels = append(levels, li)
			}
		}
		if len(levels) < 2 {
			continue
		}
		// Real cumulative tiles, inner to outer (excluding the outermost
		// level, whose trip is determined by the extent).
		real := make([]float64, len(levels))
		prod := 1.0
		for i, li := range levels {
			prod *= x[nest.Levels[li].Trips[it]]
			real[i] = prod
		}
		cands := ladder(nest.Prob.Iters[it].Extent, real[:len(real)-1], nDiv)
		dims = append(dims, dimChoice{iter: it, levels: levels, trips: cands})
	}

	base := make([][]int64, len(nest.Levels))
	for li := range base {
		base[li] = make([]int64, len(nest.Prob.Iters))
		for i := range base[li] {
			base[li][i] = 1
		}
	}
	for _, pin := range nest.Pins {
		it := nest.IterOfVar(pin.Var)
		for li := range nest.Levels {
			if nest.Levels[li].Trips[it] == pin.Var {
				base[li][it] = int64(pin.Value)
			}
		}
	}

	var bestTrips [][]int64
	var bestRep *Report
	evals := 0
	idx := make([]int, len(dims))
	for {
		trips := make([][]int64, len(base))
		for li := range base {
			trips[li] = append([]int64(nil), base[li]...)
		}
		for di, d := range dims {
			f := d.trips[idx[di]]
			for i, li := range d.levels {
				trips[li][d.iter] = f[i]
			}
		}
		rep, err := Evaluate(c, nest, trips, perms)
		evals++
		if err == nil && rep.Valid() {
			if bestRep == nil || rep.Energy < bestRep.Energy {
				bestTrips, bestRep = trips, rep
			}
		}
		if evals >= maxEvals {
			break
		}
		k := 0
		for k < len(dims) {
			idx[k]++
			if idx[k] < len(dims[k].trips) {
				break
			}
			idx[k] = 0
			k++
		}
		if k == len(dims) {
			break
		}
	}
	return bestTrips, bestRep
}

// ladder generates candidate trip vectors for one iterator: cumulative
// tile sizes are chosen from divisors (outermost inward, each dividing
// the previous), n nearest to the relaxed cumulative tiles; the returned
// vectors hold the per-level trips.
func ladder(extent int64, realCum []float64, n int) [][]int64 {
	var out [][]int64
	var rec func(pos int, remaining int64, chosen []int64)
	rec = func(pos int, remaining int64, chosen []int64) {
		if pos < 0 {
			trips := make([]int64, len(realCum)+1)
			prev := int64(1)
			for i, cum := range chosen {
				trips[i] = cum / prev
				prev = cum
			}
			trips[len(realCum)] = extent / prev
			out = append(out, trips)
			return
		}
		// Choose the cumulative tile at position pos (inner to outer):
		// must divide the next-outer cumulative tile (remaining).
		for _, d := range loopnest.NearestDivisors(remaining, realCum[pos], n) {
			chosen[pos] = d
			rec(pos-1, d, chosen)
		}
	}
	if len(realCum) == 0 {
		return [][]int64{{extent}}
	}
	rec(len(realCum)-1, extent, make([]int64, len(realCum)))
	// Deduplicate.
	seen := map[string]bool{}
	ded := out[:0]
	for _, t := range out {
		key := fmt.Sprint(t)
		if !seen[key] {
			seen[key] = true
			ded = append(ded, t)
		}
	}
	return ded
}

package hierarchy

import (
	"fmt"
	"sort"

	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/gp"
	"repro/internal/loopnest"
	"repro/internal/model"
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
	// One evaluator for the nest: each combination's Algorithm 1 run
	// feeds both its geometric program and, through the cached factor
	// table, every integer candidate evaluated under it.
	ev := model.NewEvaluator(nest)

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
		vols, err := ev.Volumes(perms)
		if err != nil {
			return nil, err
		}
		f, err := buildDeepGP(nest, vols, c)
		if err != nil {
			return nil, err
		}
		res, err := f.Solve(nest.TripHint(), solver.Options{Tol: solverTol})
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
		sess, err := ev.Session(s.perms)
		if err != nil {
			return nil, err
		}
		trips, rep := integerizeDeep(nest, c, sess, s.x)
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
	return best, nil
}

// buildDeepGP assembles the energy GP for the deep nest from the
// volumes of one permutation choice (the Eq. 3 pattern generalized over
// N boundaries).
func buildDeepGP(nest *dataflow.Nest, vols *dataflow.Volumes, c *Config) (*gp.Program, error) {
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
	if err := prog.AddLessEq("cap:pes", expr.PolyFrom(nest.SpatialProduct()), expr.Const(float64(c.PEs))); err != nil {
		return nil, err
	}
	if err := nest.AddTripConstraints(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// integerizeDeep converts the relaxed solution to integer trips: each
// free iterator's candidates are the divisor ladder (loopnest.Ladder)
// around its relaxed cumulative tiles, in generation order. It streams
// their cross product through the session of the permutation choice
// and returns the best valid design.
func integerizeDeep(nest *dataflow.Nest, c *Config, sess *model.EvalSession, x []float64) ([][]int64, *Report) {
	type dimChoice struct {
		iter   int
		levels []int     // nest levels with free trips, inner to outer
		tiles  [][]int64 // candidate cumulative tiles below the outermost level
	}
	var dims []dimChoice
	for it, iter := range nest.Prob.Iters {
		levels := nest.FreeLevels(it)
		if len(levels) < 2 {
			continue
		}
		// Relaxed cumulative tiles, inner to outer (excluding the
		// outermost level, whose trip is determined by the extent).
		cum := make([]float64, len(levels)-1)
		prod := 1.0
		for i, li := range levels[:len(cum)] {
			prod *= x[nest.Levels[li].Trips[it]]
			cum[i] = prod
		}
		dims = append(dims, dimChoice{iter: it, levels: levels, tiles: loopnest.Ladder(iter.Extent, cum, nDiv)})
	}

	// Pins and unit trips; every free trip is written per candidate.
	m := model.UniformMapping(nest)
	var bestTrips [][]int64
	var bestRep *Report
	evals := 0
	idx := make([]int, len(dims))
	for {
		for di, d := range dims {
			prev := int64(1)
			for i, cum := range d.tiles[idx[di]] {
				m.Trips[d.levels[i]][d.iter] = cum / prev
				prev = cum
			}
			m.Trips[d.levels[len(d.levels)-1]][d.iter] = nest.Prob.Iters[d.iter].Extent / prev
		}
		rep, err := evaluate(c, nest, sess, m.Trips)
		evals++
		if err == nil && rep.Valid() {
			if bestRep == nil || rep.Energy < bestRep.Energy {
				bestTrips, bestRep = m.Clone().Trips, rep
			}
		}
		if evals >= maxEvals {
			break
		}
		k := 0
		for k < len(dims) {
			idx[k]++
			if idx[k] < len(dims[k].tiles) {
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

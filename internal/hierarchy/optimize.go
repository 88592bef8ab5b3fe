package hierarchy

import (
	"context"
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/expr"
	"repro/internal/gp"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// The search constants of OptimizeEnergy's integerization.
const (
	// nDiv is the divisor-ladder width per tile variable.
	nDiv = 2
	// maxEvals caps integer-candidate evaluations per class tuple.
	maxEvals = 1 << 18
)

// Design is an optimized deep-hierarchy design point.
type Design struct {
	Trips       [][]int64
	Perms       [][]int
	Report      *Report
	GPObjective float64
	// Combos counts the permutation-class tuples searched.
	Combos int
}

// OptimizeEnergy minimizes energy for a problem on a fixed deep
// hierarchy: the pipeline's class search (pipeline.SearchClasses) over
// the tuples of permutation classes across all copy levels, with the
// N-boundary energy program as its formulation, then divisor-ladder
// integerization of its tie band validated by Evaluate.
func OptimizeEnergy(p *loopnest.Problem, c *Config) (*Design, error) {
	return optimizeEnergy(context.Background(), p, c)
}

// optimizeEnergy is OptimizeEnergy with its solves admitted through the
// scheduler of ctx (pipeline.ContextWithScheduler), when it has one.
func optimizeEnergy(ctx context.Context, p *loopnest.Problem, c *Config) (*Design, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	nest, err := dataflow.BuildNest(p, len(c.Buffers), c.SpatialAfter, dataflow.RSAtRegister)
	if err != nil {
		return nil, err
	}
	band, tuples, err := pipeline.SearchClasses(ctx, nest, &energyProgram{c: c, nest: nest})
	if err != nil {
		return nil, fmt.Errorf("hierarchy: %w", err)
	}

	// One evaluator for the nest: the integer candidates of a tuple
	// share its factor table through one session.
	ev := model.NewEvaluator(nest)
	var best *Design
	for _, s := range band {
		sess, err := ev.Session(s.Perms)
		if err != nil {
			return nil, err
		}
		trips, rep := integerizeDeep(nest, c, sess, s.X)
		if rep == nil {
			continue
		}
		if best == nil || rep.Energy < best.Report.Energy {
			best = &Design{
				Trips: trips, Perms: s.Perms, Report: rep,
				GPObjective: s.Objective, Combos: tuples,
			}
		}
	}
	if best == nil {
		return nil, fmt.Errorf("hierarchy: no integer candidate satisfied the constraints")
	}
	return best, nil
}

// energyProgram is the class search's formulation on a hierarchy: the
// energy program over N boundaries (the Eq. 3 pattern generalized).
type energyProgram struct {
	c    *Config
	nest *dataflow.Nest
}

// Objective is the energy: MAC and innermost-buffer operand accesses,
// plus each boundary's traffic at the inner-write + outer-read cost.
func (e *energyProgram) Objective(traffic []expr.Poly) (expr.Poly, error) {
	c := e.c
	obj := expr.PolyConst((4*c.Buffers[0].Energy + c.MACEnergy) * float64(e.nest.Prob.Ops()))
	for b, t := range traffic {
		obj = obj.Add(t.Scale(c.Buffers[b].Energy + c.outerEnergy(b)))
	}
	return obj, nil
}

// Program holds each buffer's footprint to its capacity and the PE
// product to the PE count, with the nest's trip-count constraints.
func (e *energyProgram) Program(objective expr.Poly, _, footprint []expr.Poly, slack []float64) (*gp.Program, error) {
	c, nest := e.c, e.nest
	prog := gp.New(nest.Vars)
	if err := prog.SetObjective(objective); err != nil {
		return nil, err
	}
	for b, foot := range footprint {
		words := float64(c.Buffers[b].Words) * slack[b]
		if err := prog.AddLessEq("cap:"+c.Buffers[b].Name, foot, expr.Const(words)); err != nil {
			return nil, err
		}
	}
	if err := prog.AddLessEq("cap:pes", expr.PolyFrom(nest.SpatialProduct()), expr.Const(float64(c.PEs))); err != nil {
		return nil, err
	}
	return prog, nest.AddTripConstraints(prog)
}

// Hint is the nest's even spread of the extents across levels.
func (e *energyProgram) Hint() []float64 { return e.nest.TripHint() }

// Bounds leaves every range at its default: the program has no
// variable besides the trip counts.
func (e *energyProgram) Bounds(lo, hi []float64) {}

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

	// Pins and unit trips; every free trip is written per candidate,
	// and rep is rewritten per candidate: both are cloned on keep.
	m := model.UniformMapping(nest)
	var rep Report
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
		err := evaluate(c, nest, sess, m.Trips, &rep, true)
		evals++
		if err == nil && rep.Valid() {
			if bestRep == nil || rep.Energy < bestRep.Energy {
				bestTrips, bestRep = m.Clone().Trips, rep.clone()
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

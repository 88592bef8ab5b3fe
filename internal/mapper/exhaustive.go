package mapper

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
)

// ExhaustiveLimit bounds the number of candidate mappings Exhaustive is
// willing to enumerate; larger spaces return ErrTooLarge.
const ExhaustiveLimit = 20_000_000

// ErrTooLarge reports a search space beyond ExhaustiveLimit.
var ErrTooLarge = fmt.Errorf("mapper: search space exceeds %d mappings", ExhaustiveLimit)

// Exhaustive enumerates the complete mapping space of a problem on an
// architecture — every ordered divisor factorization of every iterator
// across the tiling levels, crossed with every permutation class of both
// copy levels — and returns the true optimum under the criterion. It is
// the ground-truth oracle used to validate the optimizer on small
// problems; the space grows multiplicatively, so it is only feasible for
// tiny extents.
func Exhaustive(p *loopnest.Problem, a *arch.Arch, crit model.Criterion, nestOpts dataflow.StandardOptions) (*Result, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	nest, err := dataflow.StandardNest(p, nestOpts)
	if err != nil {
		return nil, err
	}
	ev := model.NewEvaluator(nest)
	gen, err := newGenerator(nest, a, nil)
	if err != nil {
		return nil, err
	}

	// Per-iterator: all ordered factorizations across its tileable levels.
	type dimChoice struct {
		levels []int
		trips  [][]int64 // each entry parallel to levels
	}
	var dims []dimChoice
	total := int64(1)
	for it := range p.Iters {
		levels := gen.tiledLevels(it)
		if len(levels) == 0 {
			continue
		}
		fs := orderedFactorizations(gen.free[it], len(levels))
		dims = append(dims, dimChoice{levels: levels, trips: fs})
		total *= int64(len(fs))
		if total > ExhaustiveLimit {
			return nil, ErrTooLarge
		}
	}
	// Permutation classes at the copy levels (deduplicated — members of a
	// class share DV expressions, hence cost).
	classesL1, err := nest.EnumerateClasses(dataflow.StandardLevelL1, nil)
	if err != nil {
		return nil, err
	}
	classesSRAM, err := nest.EnumerateClasses(dataflow.StandardLevelSRAM, nil)
	if err != nil {
		return nil, err
	}
	total *= int64(len(classesL1) * len(classesSRAM))
	if total > ExhaustiveLimit {
		return nil, ErrTooLarge
	}

	base := model.UniformMapping(nest)
	var (
		best    *model.Mapping
		bestRep *model.Report
		trials  int64
		valid   int64
	)
	evalAll := func(m *model.Mapping) {
		for _, c1 := range classesL1 {
			for _, c3 := range classesSRAM {
				m.Perms = dataflow.StandardPerms(c1.Perm, c3.Perm)
				trials++
				rep, err := ev.Evaluate(a, m)
				if err != nil || !rep.Valid() {
					continue
				}
				valid++
				if bestRep == nil || model.Score(crit, rep) < model.Score(crit, bestRep) {
					best, bestRep = m.Clone(), rep
				}
			}
		}
	}
	// Odometer iteration over the per-dimension factorization choices.
	// dims were appended in iterator order, so recover each entry's
	// iterator the same way.
	idx := make([]int, len(dims))
	iterOfDim := make([]int, len(dims))
	di := 0
	for it := range p.Iters {
		if len(gen.tiledLevels(it)) == 0 {
			continue
		}
		iterOfDim[di] = it
		di++
	}
	m := base.Clone()
	for {
		for di, d := range dims {
			f := d.trips[idx[di]]
			for i, li := range d.levels {
				m.Trips[li][iterOfDim[di]] = f[i]
			}
		}
		evalAll(m)
		// Advance odometer.
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
	if bestRep == nil {
		return &Result{Trials: trials}, fmt.Errorf("%w after %d mappings", ErrNoMapping, trials)
	}
	return &Result{Mapping: best, Report: bestRep, Trials: trials, Valid: valid}, nil
}

// orderedFactorizations returns every way to write n as an ordered
// product of k positive factors.
func orderedFactorizations(n int64, k int) [][]int64 {
	if k == 1 {
		return [][]int64{{n}}
	}
	var out [][]int64
	for _, d := range loopnest.Divisors(n) {
		for _, rest := range orderedFactorizations(n/d, k-1) {
			f := append([]int64{d}, rest...)
			out = append(out, f)
		}
	}
	return out
}

// Package mapper is the reproduction's substitute for the Timeloop
// Mapper: a multi-threaded randomized search over the mapping space
// (divisor factorizations of every loop extent across the tiling levels,
// times loop permutations at the copy levels), evaluating candidates with
// the analytical model and keeping the best. Each thread keeps its own
// incumbent and terminates on either a maximum trial count (timeout) or
// a victory condition — n consecutive candidates that fail to improve
// on its incumbent — mirroring the Mapper behaviour described in the
// paper's Section IV; the best of the threads' incumbents wins.
package mapper

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
)

// Criterion re-exports model.Criterion for convenience.
type Criterion = model.Criterion

// Re-exported criterion values.
const (
	MinEnergy = model.MinEnergy
	MinDelay  = model.MinDelay
)

// ErrNoMapping is returned when no valid mapping was found within the
// search budget.
var ErrNoMapping = errors.New("mapper: no valid mapping found")

// Options tunes the search. Zero values select defaults.
type Options struct {
	Criterion Criterion
	// Threads is the number of worker goroutines (default 4).
	Threads int
	// MaxTrials bounds candidates per thread (default 20000).
	MaxTrials int
	// Victory stops a thread after this many consecutive non-improving
	// candidates (default 2000).
	Victory int
	// Seed makes the search deterministic (default 1).
	Seed int64
	// Constraints pin parts of the mapping (trip counts, permutations);
	// the search explores only the remaining freedom.
	Constraints *Constraints
	// Obs receives search telemetry: a span per search, the trial,
	// valid-mapping and improvement counters, and periodic Debug-level
	// progress logs for long runs. Nil disables it all.
	Obs *obs.Obs
	// Span, when tracing, parents the search span. May be nil.
	Span *obs.Span
}

func (o Options) withDefaults() Options {
	if o.Threads == 0 {
		o.Threads = 4
	}
	if o.MaxTrials == 0 {
		o.MaxTrials = 20000
	}
	if o.Victory == 0 {
		o.Victory = 2000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result is the outcome of a search.
type Result struct {
	Mapping *model.Mapping
	Report  *model.Report
	// Trials counts all generated candidates; Valid counts those that
	// satisfied the architecture constraints.
	Trials int64
	Valid  int64
}

// Usable reports whether r holds a mapping and its report: a Result
// decoded from a damaged cache record may lack them (see cache.Usable).
func (r *Result) Usable() bool {
	return r != nil && r.Mapping != nil && r.Report != nil
}

// Score extracts the objective value from a report.
func Score(c Criterion, r *model.Report) float64 { return model.Score(c, r) }

// Search runs the randomized mapper for the problem on the architecture.
func Search(p *loopnest.Problem, a *arch.Arch, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	nest, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		return nil, err
	}
	ev := model.NewEvaluator(nest)
	gen, err := newGenerator(nest, a, opts.Constraints)
	if err != nil {
		return nil, err
	}

	o := opts.Obs
	span := o.StartSpan(opts.Span, "mapper-search")
	if span != nil {
		span.Annotate(obs.String("problem", p.Name), obs.Int("threads", opts.Threads))
	}

	// Each worker searches on its own: its own RNG stream, its own best
	// and its own victory count, so a fixed seed and thread count give
	// the same result whatever the interleaving.
	workers := make([]worker, opts.Threads)
	var wg sync.WaitGroup
	for tid := range workers {
		wg.Add(1)
		go func(w *worker, tid int) {
			defer wg.Done()
			w.search(tid, gen, ev, a, opts)
			w.observe(o)
		}(&workers[tid], tid)
	}
	wg.Wait()

	// Merge the workers' bests by (score, worker index).
	var best *worker
	var trials, valid int64
	for i := range workers {
		w := &workers[i]
		trials += w.trials
		valid += w.valid
		if w.bestRep != nil && (best == nil || w.score(opts.Criterion) < best.score(opts.Criterion)) {
			best = w
		}
	}
	if span != nil {
		span.Annotate(obs.Int64("trials", trials), obs.Int64("valid", valid))
		span.End()
	}
	if o.Enabled(obs.Debug) {
		o.Logf(obs.Debug, "mapper: %s done, %d trials, %d valid, best %.4g",
			p.Name, trials, valid, best.score(opts.Criterion))
	}
	if best == nil {
		return &Result{Trials: trials}, fmt.Errorf("%w after %d trials", ErrNoMapping, trials)
	}
	return &Result{Mapping: best.best, Report: best.bestRep, Trials: trials, Valid: valid}, nil
}

// worker is the record of one search thread: its counts and its best
// mapping.
type worker struct {
	trials, valid, improvements int64
	best                        *model.Mapping
	bestRep                     *model.Report
}

// score is the criterion's value of the worker's best, 0 while it has
// none; a nil worker has none.
func (w *worker) score(c Criterion) float64 {
	if w == nil || w.bestRep == nil {
		return 0
	}
	return Score(c, w.bestRep)
}

// search runs thread tid's trials until its budget or its victory
// condition, n consecutive candidates that do not improve its own best,
// ends it.
func (w *worker) search(tid int, gen *generator, ev *model.Evaluator, a *arch.Arch, opts Options) {
	log := opts.Obs.Logger()
	rng := rand.New(rand.NewSource(opts.Seed + int64(tid)*7919))
	since := 0
	for trial := 0; trial < opts.MaxTrials && since < opts.Victory; trial++ {
		w.trials++
		if w.trials%4096 == 0 && log.Enabled(obs.Debug) {
			log.Debugf("mapper worker %d: %d/%d trials, %d valid, best %.4g",
				tid, w.trials, opts.MaxTrials, w.valid, w.score(opts.Criterion))
		}
		m := gen.random(rng)
		rep, err := ev.Evaluate(a, m)
		if err != nil || !rep.Valid() {
			since++
			continue
		}
		w.valid++
		if w.bestRep == nil || Score(opts.Criterion, rep) < w.score(opts.Criterion) {
			w.best, w.bestRep = m, rep
			w.improvements++
			since = 0
		} else {
			since++
		}
	}
}

// observe adds the worker's counts to the mapper.trials, mapper.valid
// and mapper.improvements counters.
func (w *worker) observe(o *obs.Obs) {
	o.Counter("mapper.trials").Add(w.trials)
	o.Counter("mapper.valid").Add(w.valid)
	o.Counter("mapper.improvements").Add(w.improvements)
}

// generator produces random valid-shaped mappings for a standard nest.
type generator struct {
	nest *dataflow.Nest
	a    *arch.Arch
	cons *Constraints
	// divisors[it] are the divisors of iterator it's tileable extent:
	// the values its remaining extent takes during a draw.
	// divisorsOf[it][k] are the divisors of divisors[it][k], the trips
	// a draw picks from at that remaining extent.
	divisors   [][]int64
	divisorsOf [][][]int64
	free       []int64 // tileable extent per iterator
	// levels[it] are the nest levels at which iterator it takes a free
	// trip, inner to outer (dataflow.Nest.FreeLevels), and drawn[it]
	// those of them the constraints leave to the random draw.
	levels, drawn [][]int
	base          *model.Mapping
}

func newGenerator(n *dataflow.Nest, a *arch.Arch, cons *Constraints) (*generator, error) {
	g := &generator{nest: n, a: a, cons: cons}
	ni := len(n.Prob.Iters)
	g.free = make([]int64, ni)
	g.divisors = make([][]int64, ni)
	g.divisorsOf = make([][][]int64, ni)
	g.levels = make([][]int, ni)
	g.drawn = make([][]int, ni)
	pinned := make([]int64, ni)
	for i := range pinned {
		pinned[i] = 1
	}
	for _, pin := range n.Pins {
		pinned[n.IterOfVar(pin.Var)] *= int64(pin.Value)
	}
	for it, iter := range n.Prob.Iters {
		if iter.Extent%pinned[it] != 0 {
			return nil, fmt.Errorf("mapper: iterator %s extent %d not divisible by pinned %d",
				iter.Name, iter.Extent, pinned[it])
		}
		g.free[it] = iter.Extent / pinned[it]
		g.divisors[it] = loopnest.Divisors(g.free[it])
		for _, d := range g.divisors[it] {
			g.divisorsOf[it] = append(g.divisorsOf[it], loopnest.Divisors(d))
		}
		g.levels[it] = n.FreeLevels(it)
		for _, li := range g.levels[it] {
			if cons.tripAt(li, it) == 0 {
				g.drawn[it] = append(g.drawn[it], li)
			}
		}
	}
	if err := cons.Validate(n, g.free); err != nil {
		return nil, err
	}
	// When every tileable level of an iterator is pinned, the pinned
	// product must cover the whole extent (no free level remains to
	// absorb the rest).
	if !cons.Empty() {
		for it := range n.Prob.Iters {
			prod := int64(1)
			freeLevels := 0
			for _, li := range g.levels[it] {
				if v := cons.tripAt(li, it); v > 0 {
					prod *= v
				} else {
					freeLevels++
				}
			}
			if freeLevels == 0 && prod != g.free[it] {
				return nil, fmt.Errorf("mapper: iterator %s fully pinned to product %d, want %d",
					n.Prob.Iters[it].Name, prod, g.free[it])
			}
		}
	}
	g.base = model.UniformMapping(n)
	return g, nil
}

// random generates one candidate mapping: a random divisor chain per
// iterator (guided to keep the spatial product within the PE budget) and
// random copy-level permutations.
func (g *generator) random(rng *rand.Rand) *model.Mapping {
	m := g.base.Clone()
	peBudget := g.a.PEs
	for it := range g.nest.Prob.Iters {
		rest := g.free[it]
		// Apply pinned trips first; they are not part of the random
		// choice but consume extent (and PE budget at spatial levels).
		for _, li := range g.levels[it] {
			if v := g.cons.tripAt(li, it); v > 0 {
				m.Trips[li][it] = v
				rest /= v
				if g.nest.Levels[li].Kind == dataflow.Spatial {
					peBudget /= v
				}
			}
		}
		drawn := g.drawn[it]
		for pos, li := range drawn {
			if pos == len(drawn)-1 {
				m.Trips[li][it] = rest
				break
			}
			var trip int64
			ds := g.divisorsOfRest(it, rest)
			if g.nest.Levels[li].Kind == dataflow.Spatial {
				trip = randomDivisorAtMost(rng, ds, peBudget)
				peBudget /= trip
			} else {
				trip = ds[rng.Intn(len(ds))]
			}
			m.Trips[li][it] = trip
			rest /= trip
		}
	}
	for li := range g.nest.Levels {
		lvl := &g.nest.Levels[li]
		if lvl.Kind == dataflow.Temporal && lvl.Copy {
			if g.cons != nil {
				if fixed, ok := g.cons.FixedPerms[li]; ok {
					m.Perms[li] = append([]int(nil), fixed...)
					continue
				}
			}
			perm := append([]int(nil), lvl.Active...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			m.Perms[li] = perm
		}
	}
	return m
}

// divisorsOfRest returns the divisors of rest, a remaining extent of
// iterator it. rest always divides the iterator's tileable extent: a
// draw divides it only by divisors and by pinned trips, whose product
// Constraints.Validate requires to divide it.
func (g *generator) divisorsOfRest(it int, rest int64) []int64 {
	k, _ := slices.BinarySearch(g.divisors[it], rest)
	return g.divisorsOf[it][k]
}

// randomDivisorAtMost draws one of the divisors ds (ascending) that is
// at most maxVal, or returns 1 when none is.
func randomDivisorAtMost(rng *rand.Rand, ds []int64, maxVal int64) int64 {
	hi := 0
	for hi < len(ds) && ds[hi] <= maxVal {
		hi++
	}
	if hi == 0 {
		return 1
	}
	return ds[rng.Intn(hi)]
}

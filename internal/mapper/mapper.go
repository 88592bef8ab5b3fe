// Package mapper is the reproduction's substitute for the Timeloop
// Mapper: a multi-threaded randomized search over the mapping space
// (divisor factorizations of every loop extent across the tiling levels,
// times loop permutations at the copy levels), evaluating candidates with
// the analytical model and keeping the best. Threads terminate on either
// a maximum trial count (timeout) or a victory condition — n consecutive
// candidates that fail to improve on the incumbent — mirroring the
// Mapper behaviour described in the paper's Section IV.
package mapper

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/expr"
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
	// Nest customization.
	NestOptions dataflow.StandardOptions
	// Constraints pin parts of the mapping (trip counts, permutations);
	// the search explores only the remaining freedom.
	Constraints *Constraints
	// Obs receives search telemetry: a span per search, per-worker
	// progress gauges, mappings-evaluated counters, and periodic
	// Debug-level progress logs for long runs. Nil disables it all.
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

// Score extracts the objective value from a report.
func Score(c Criterion, r *model.Report) float64 { return model.Score(c, r) }

// Search runs the randomized mapper for the problem on the architecture.
func Search(p *loopnest.Problem, a *arch.Arch, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := a.Validate(); err != nil {
		return nil, err
	}
	nest, err := dataflow.StandardNest(p, opts.NestOptions)
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
	trialsC := o.Counter("mapper.trials")
	validC := o.Counter("mapper.valid")
	improveC := o.Counter("mapper.improvements")

	var (
		mu      sync.Mutex
		best    *model.Mapping
		bestRep *model.Report
		trials  int64
		valid   int64
	)
	bestScore := func() float64 {
		if bestRep == nil {
			return 0
		}
		return Score(opts.Criterion, bestRep)
	}

	var wg sync.WaitGroup
	for tid := 0; tid < opts.Threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			// Per-worker progress gauge; nil (free) when metrics are off.
			var progress *obs.Gauge
			if o.MetricsEnabled() {
				progress = o.Gauge(fmt.Sprintf("mapper.worker%02d.trials", tid))
			}
			log := o.Logger()
			rng := rand.New(rand.NewSource(opts.Seed + int64(tid)*7919))
			since := 0
			localTrials := int64(0)
			localValid := int64(0)
			for trial := 0; trial < opts.MaxTrials && since < opts.Victory; trial++ {
				localTrials++
				trialsC.Inc()
				progress.Set(localTrials)
				if localTrials%4096 == 0 && log.Enabled(obs.Debug) {
					mu.Lock()
					bs := bestScore()
					mu.Unlock()
					log.Debugf("mapper worker %d: %d/%d trials, %d valid, best %.4g",
						tid, localTrials, opts.MaxTrials, localValid, bs)
				}
				m := gen.random(rng)
				rep, err := ev.Evaluate(a, m)
				if err != nil || !rep.Valid() {
					since++
					continue
				}
				localValid++
				validC.Inc()
				score := Score(opts.Criterion, rep)
				mu.Lock()
				if bestRep == nil || score < bestScore() {
					best, bestRep = m, rep
					since = 0
					improveC.Inc()
				} else {
					since++
				}
				mu.Unlock()
			}
			mu.Lock()
			trials += localTrials
			valid += localValid
			mu.Unlock()
		}(tid)
	}
	wg.Wait()
	if span != nil {
		span.Annotate(obs.Int64("trials", trials), obs.Int64("valid", valid))
		span.End()
	}
	if o.Enabled(obs.Debug) {
		o.Logf(obs.Debug, "mapper: %s done, %d trials, %d valid, best %.4g",
			p.Name, trials, valid, bestScore())
	}

	if bestRep == nil {
		return &Result{Trials: trials}, fmt.Errorf("%w after %d trials", ErrNoMapping, trials)
	}
	return &Result{Mapping: best, Report: bestRep, Trials: trials, Valid: valid}, nil
}

// generator produces random valid-shaped mappings for a standard nest.
type generator struct {
	nest *dataflow.Nest
	a    *arch.Arch
	cons *Constraints
	// divisors[it] are the divisors of each iterator's remaining tileable
	// extent (after pinned factors).
	divisors [][]int64
	free     []int64 // tileable extent per iterator
	base     *model.Mapping
}

func newGenerator(n *dataflow.Nest, a *arch.Arch, cons *Constraints) (*generator, error) {
	g := &generator{nest: n, a: a, cons: cons}
	ni := len(n.Prob.Iters)
	g.free = make([]int64, ni)
	g.divisors = make([][]int64, ni)
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
			for _, li := range g.tiledLevels(it) {
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

// tiledLevels returns the levels at which the iterator may take a free
// (non-pinned) trip, inner to outer.
func (g *generator) tiledLevels(it int) []int {
	var out []int
	pinnedLevels := map[int]bool{}
	for _, pin := range g.nest.Pins {
		if g.nest.IterOfVar(pin.Var) == it {
			pinnedLevels[levelOfTrip(g.nest, pin.Var)] = true
		}
	}
	for li := range g.nest.Levels {
		lvl := &g.nest.Levels[li]
		active := false
		for _, a := range lvl.Active {
			if a == it {
				active = true
			}
		}
		if active && !pinnedLevels[li] {
			out = append(out, li)
		}
	}
	return out
}

func levelOfTrip(n *dataflow.Nest, v expr.VarID) int {
	for li := range n.Levels {
		for _, tv := range n.Levels[li].Trips {
			if tv == v {
				return li
			}
		}
	}
	return -1
}

// random generates one candidate mapping: a random divisor chain per
// iterator (guided to keep the spatial product within the PE budget) and
// random copy-level permutations.
func (g *generator) random(rng *rand.Rand) *model.Mapping {
	m := g.base.Clone()
	peBudget := g.a.PEs
	for it := range g.nest.Prob.Iters {
		levels := g.tiledLevels(it)
		if len(levels) == 0 {
			continue
		}
		rest := g.free[it]
		// Apply pinned trips first; they are not part of the random
		// choice but consume extent (and PE budget at spatial levels).
		freeLevels := levels[:0:0]
		for _, li := range levels {
			if v := g.cons.tripAt(li, it); v > 0 {
				m.Trips[li][it] = v
				rest /= v
				if g.nest.Levels[li].Kind == dataflow.Spatial {
					peBudget /= v
				}
				continue
			}
			freeLevels = append(freeLevels, li)
		}
		for pos, li := range freeLevels {
			if pos == len(freeLevels)-1 {
				m.Trips[li][it] = rest
				break
			}
			var trip int64
			if g.nest.Levels[li].Kind == dataflow.Spatial {
				trip = randomDivisorAtMost(rng, rest, peBudget)
				peBudget /= trip
			} else {
				trip = randomDivisor(rng, rest)
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

func randomDivisor(rng *rand.Rand, n int64) int64 {
	ds := loopnest.Divisors(n)
	return ds[rng.Intn(len(ds))]
}

func randomDivisorAtMost(rng *rand.Rand, n, maxVal int64) int64 {
	ds := loopnest.Divisors(n)
	hi := 0
	for hi < len(ds) && ds[hi] <= maxVal {
		hi++
	}
	if hi == 0 {
		return 1
	}
	return ds[rng.Intn(hi)]
}

package pipeline

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
)

// integerizeStage converts the solve stage's tie band to integer
// designs. Each pair's divisor-ladder search is a leaf compute job
// admitted through the shared scheduler; results land in per-pair slots
// and are compacted in band order, so parallelism cannot change which
// candidates survive. When no pair yields an integer point, a fallback
// ladder shrinks the relaxed solutions geometrically toward the
// all-ones tiling (x^λ stays ≥ 1) and retries.
//
// The band is searched in two rounds: its first topClasses pairs, then
// the rest. For delay, each second-round search starts from the first
// round's best Cycles as its incumbent and returns only a strictly
// better design. Second-round pairs come later in selectStage's strict
// order, so a design that merely tied the first round could never have
// won, and the seed only lets the branch and bound skip more.
type integerizeStage struct{}

func (integerizeStage) Name() string { return "integerize" }

func (integerizeStage) Run(r *Run) error {
	// One evaluator shared by every job: model.Evaluator is documented
	// safe for concurrent use (its cache of per-permutation factor
	// tables is internally locked), and each search steps its own
	// single-goroutine session over one table. The validate stage
	// reuses it, so a candidate's table is built once per run.
	ev := model.NewEvaluator(r.nest)
	r.ev = ev
	seeded := r.opts.Criterion == model.MinDelay

	// integerizePass converts each pair under shrink(x), keeping only
	// designs that score strictly below seed, and returns the surviving
	// candidates in pair order.
	integerizePass := func(pairs []Solved, shrink func([]float64) []float64, seed float64) ([]*integerized, error) {
		out := make([]*integerized, len(pairs))
		var mu sync.Mutex
		err := r.sched.ForEach(r.ctx, len(pairs), func(i int) error {
			sp := pairs[i]
			c, rep, visited := r.integerizeOne(ev, shrink(sp.X), sp, seed)
			mu.Lock()
			r.stats.Candidates += visited
			mu.Unlock()
			if c != nil {
				out[i] = &integerized{pair: sp, cand: c, rep: rep}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return slices.DeleteFunc(out, func(c *integerized) bool { return c == nil }), nil
	}
	// integerizeBand runs the two rounds over the whole band.
	integerizeBand := func(shrink func([]float64) []float64) ([]*integerized, error) {
		k := min(topClasses, len(r.solved))
		cands, err := integerizePass(r.solved[:k], shrink, math.Inf(1))
		if err != nil || k == len(r.solved) {
			return cands, err
		}
		seed := math.Inf(1)
		if seeded {
			for _, c := range cands {
				seed = min(seed, c.rep.Cycles)
			}
		}
		rest, err := integerizePass(r.solved[k:], shrink, seed)
		return append(cands, rest...), err
	}

	identity := func(x []float64) []float64 { return x }
	cands, err := integerizeBand(identity)
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		// Fallback ladder: on tight architectures the divisor ladder
		// around the relaxed solution can miss every exactly-feasible
		// integer point. Shrink the solution geometrically toward the
		// minimal (all-ones) tiling and retry.
		for _, lambda := range []float64{0.5, 0.25, 0} {
			cands, err = integerizeBand(func(x []float64) []float64 {
				shrunk := append([]float64(nil), x...)
				for i := range shrunk {
					if shrunk[i] > 1 {
						shrunk[i] = math.Pow(shrunk[i], lambda)
					}
				}
				return shrunk
			})
			if err != nil {
				return err
			}
			if len(cands) > 0 {
				break
			}
		}
	}
	r.cands = cands
	return nil
}

// integerizeOne converts one relaxed solution to the best integer
// design scoring strictly below seed, recording an integerize span whose
// model-eval child covers the streamed candidate evaluation.
func (r *Run) integerizeOne(ev *model.Evaluator, x []float64, sp Solved, seed float64) (*candidate, *model.Report, int) {
	o := r.obs
	var ispan *obs.Span
	if o.TracingEnabled() {
		ispan = o.StartSpan(r.parent, "integerize", obs.Float("gp_objective", sp.Objective))
	}
	evalSpan := o.StartSpan(ispan, "model-eval")
	c, rep, visited := searchIntegerCandidates(ev, r.nest, sp.Perms, x, r.av, r.opts.NDiv, r.opts.Criterion, seed)
	if evalSpan != nil {
		evalSpan.SetAttr("candidates", int64(visited))
		evalSpan.End()
		ispan.SetAttr("found", c != nil)
		ispan.End()
	}
	return c, rep, visited
}

// dimCandidate is one integer tiling of a free iterator: its trip at
// each of its free levels (dataflow.Nest.FreeLevels), inner to outer,
// and pes, its trip at the spatial level.
type dimCandidate struct {
	iter   int
	levels []int // shared by the iterator's candidates
	trips  []int64
	pes    int64
}

// pow2Candidates returns the n powers of two nearest to target (at least
// 1, ascending).
func pow2Candidates(target float64, n int) []int64 {
	if target < 1 {
		target = 1
	}
	exp := math.Log2(target)
	lo := int(math.Floor(exp))
	var out []int64
	for i := 0; i < n; i++ {
		// Alternate around the floor: lo, lo+1, lo−1, lo+2, ...
		var e int
		switch {
		case i == 0:
			e = lo
		case i%2 == 1:
			e = lo + (i+1)/2
		default:
			e = lo - i/2
		}
		if e < 0 {
			continue
		}
		out = append(out, int64(1)<<uint(e))
	}
	slices.Sort(out)
	return out
}

// dimCandidates generates up to nDiv^(L−1) integer tilings of iterator
// it over its L free levels following the paper's divisor ladder
// (loopnest.Ladder over the relaxed cumulative tiles below the
// outermost level): at depth 2, SRAM tile candidates from the nDiv
// divisors of the extent nearest the relaxed tile, per-PE tile
// candidates from the divisors of each SRAM candidate, register tile
// candidates from the divisors of each per-PE candidate. They are
// sorted by their cumulative tiles, outermost first (at depth 2 by
// SRAM, per-PE, register tile), the search's visit order.
func dimCandidates(n *dataflow.Nest, it int, levels []int, x []float64, nDiv int) []dimCandidate {
	extent := n.Prob.Iters[it].Extent
	cum := make([]float64, len(levels)-1)
	prod := 1.0
	for i, li := range levels[:len(cum)] {
		prod *= x[n.Levels[li].Trips[it]]
		cum[i] = prod
	}
	ladder := loopnest.Ladder(extent, cum, nDiv)
	slices.SortFunc(ladder, func(a, b []int64) int {
		for i := len(a) - 1; i >= 0; i-- {
			if c := cmp.Compare(a[i], b[i]); c != 0 {
				return c
			}
		}
		return 0
	})
	spatial := slices.IndexFunc(levels, func(li int) bool { return n.Levels[li].Kind == dataflow.Spatial })
	out := make([]dimCandidate, len(ladder))
	trips := make([]int64, len(ladder)*len(levels))
	for i, tiles := range ladder {
		t := trips[i*len(levels) : (i+1)*len(levels)]
		prev := int64(1)
		for j, tile := range tiles {
			t[j] = tile / prev
			prev = tile
		}
		t[len(tiles)] = extent / prev
		out[i] = dimCandidate{iter: it, levels: levels, trips: t, pes: 1}
		if spatial >= 0 {
			out[i].pes = t[spatial]
		}
	}
	return out
}

// candidate is one fully integer design point before model evaluation.
type candidate struct {
	archCfg arch.Arch
	mapping *model.Mapping
}

// searchIntegerCandidates streams the integer candidate space — the
// cross product of per-dimension divisor-ladder tilings and (in
// co-design mode) power-of-two capacities — directly through model
// evaluation, keeping only the best valid design. Streaming avoids
// materializing the cross product (which reaches millions of mappings at
// ladder width 3).
//
// The visit order is depth first over the free iterators in iterator
// order, each dimension's ladder in the order dimCandidates sorts it,
// with the capacity pairs innermost. consider keeps the first of equal
// scores, so this order is the tie-break and must not change.
//
// Two exact prunes skip leaves that could never be kept. On a fixed
// architecture, a prefix whose PE product already exceeds the
// architecture's PEs is skipped in every criterion: the product only
// grows below it, and a leaf using more PEs than exist is invalid. For
// the delay and EDP criteria the search is also a branch and bound. A
// leaf's Cycles is at least ops/PEsUsed, and PEsUsed is the product of
// the spatial trips over the free iterators (the nest's spatial level
// holds only tiled iterators). Below a partial assignment every leaf
// therefore uses at most the prefix's PE product times the largest
// spatial trip of each remaining ladder, capped at the fixed
// architecture's PE count. A subtree whose bound gives ops/PEs ≥ the
// incumbent's Cycles is skipped: float division is monotone, so none of
// its leaves could score strictly better. EDP uses the same cycles
// bound times the least compute energy of the search's architectures
// (model.ComputeEnergy; in co-design, that of the smallest register
// candidate): every other term of a leaf's energy is non-negative, and
// float addition and multiplication of non-negatives are monotone.
// Energy searches have only the PE cap.
//
// seed is the score to beat: the search keeps only designs scoring
// strictly below it, and for delay it is the incumbent from the start
// (+Inf for none). It returns nil when no leaf beats it.
//
// visited counts the leaves evaluated; pruned leaves are not counted,
// and only evaluated leaves count toward the maxCandidates cap.
func searchIntegerCandidates(ev *model.Evaluator, n *dataflow.Nest, perms [][]int, x []float64, av *archVars, nDiv int, crit model.Criterion, seed float64) (best *candidate, bestRep *model.Report, visited int) {
	var perDim [][]dimCandidate
	for it := range n.Prob.Iters {
		levels := n.FreeLevels(it)
		if len(levels) < 2 {
			continue // pinned or unit iterator: no free tiling
		}
		d := dimCandidates(n, it, levels, x, nDiv)
		if len(d) == 0 {
			return nil, nil, 0
		}
		perDim = append(perDim, d)
	}
	var archs []arch.Arch
	if av.mode == CoDesign {
		for _, r := range pow2Candidates(x[av.varR], nPow2) {
			for _, s := range pow2Candidates(x[av.varS], nPow2) {
				archs = append(archs, arch.Arch{
					Name: "codesign", Regs: r, SRAM: s, PEs: 1, Tech: av.tech,
				})
			}
		}
	} else {
		archs = []arch.Arch{av.fixed}
	}
	// The leaves price these archs without validating them (only PEs
	// changes, to a tiling's PE product, which is at least 1).
	for k := range archs {
		if archs[k].Validate() != nil {
			return nil, nil, 0
		}
	}

	// All candidates of this search share one permutation choice, so pin
	// its factor table in a session and stream every tiling through it.
	// The recursion records its choice at each depth and, only when a
	// leaf has a capacity pair to score, sets the session's iterators
	// from the shallowest depth chosen since the last scored leaf down:
	// the session re-evaluates only the factors whose variables changed,
	// and sums the tiling once for all its pairs. Quick mode skips
	// formatted violation messages — rejected reports are discarded, and
	// the winner (valid by construction) has none.
	sess, err := ev.Session(perms)
	if err != nil {
		return nil, nil, 0
	}
	sess.Quick = true
	chosen := make([]*dimCandidate, len(perDim))
	branch := 0 // the shallowest depth chosen since the session was set
	// setSession sets the chosen tilings from branch down; once they are
	// set, it does nothing until the recursion chooses again.
	setSession := func() bool {
		for ; branch < len(chosen); branch++ {
			if c := chosen[branch]; sess.SetIter(c.iter, c.levels, c.trips) != nil {
				return false
			}
		}
		return true
	}

	bestScore := seed
	consider := func(a *arch.Arch) {
		rep, err := sess.Price(a)
		if err != nil || !rep.Valid() {
			return
		}
		if score := model.Score(crit, rep); score < bestScore {
			m := buildMapping(n, perms)
			for _, c := range chosen {
				c.apply(m)
			}
			best = &candidate{archCfg: *a, mapping: m}
			bestRep, bestScore = rep.Clone(), score
		}
	}

	// PE cap: a fixed architecture's PE count (no cap in co-design,
	// where the area budget bounds each leaf).
	peCap := int64(math.MaxInt64)
	if av.mode == FixedArch {
		peCap = av.fixed.PEs
	}
	// Bound state: maxPEs[i] is the largest PE product the dimensions
	// i.. can contribute, and minCompute the least compute energy of
	// any of the search's archs.
	var maxPEs []int64
	ops := float64(n.Prob.Ops())
	minCompute := math.Inf(1)
	if crit == model.MinDelay || crit == model.MinEDP {
		maxPEs = make([]int64, len(perDim)+1)
		maxPEs[len(perDim)] = 1
		for i := len(perDim) - 1; i >= 0; i-- {
			widest := int64(1)
			for _, c := range perDim[i] {
				widest = max(widest, c.pes)
			}
			maxPEs[i] = maxPEs[i+1] * widest
		}
		for k := range archs {
			minCompute = min(minCompute, model.ComputeEnergy(&archs[k], ops))
		}
	}
	// cannotWin reports whether no leaf below a prefix with PE product
	// pes can be kept.
	cannotWin := func(i int, pes int64) bool {
		if pes > peCap {
			return true
		}
		if maxPEs == nil {
			return false
		}
		cycles := ops / float64(min(pes*maxPEs[i], peCap))
		if crit == model.MinEDP {
			return minCompute*cycles >= bestScore
		}
		return cycles >= bestScore
	}

	var rec func(i int, pes int64)
	rec = func(i int, pes int64) {
		if visited >= maxCandidates || cannotWin(i, pes) {
			return
		}
		if i == len(perDim) {
			for k := range archs {
				a := &archs[k]
				if av.mode == CoDesign {
					a.PEs = pes
					if a.Area() > av.budget {
						continue
					}
				}
				if !setSession() {
					return
				}
				visited++
				consider(a)
			}
			return
		}
		for k := range perDim[i] {
			c := &perDim[i][k]
			chosen[i] = c
			branch = min(branch, i)
			rec(i+1, pes*c.pes)
		}
	}
	rec(0, 1)
	return best, bestRep, visited
}

// buildMapping returns the pinned base Mapping over the nest (see
// model.UniformMapping) with the given permutations.
func buildMapping(n *dataflow.Nest, perms [][]int) *model.Mapping {
	m := model.UniformMapping(n)
	m.Perms = make([][]int, len(perms))
	for i, p := range perms {
		if p != nil {
			m.Perms[i] = append([]int(nil), p...)
		}
	}
	return m
}

// apply writes the tiling into m: every free trip of its iterator.
func (d *dimCandidate) apply(m *model.Mapping) {
	for i, li := range d.levels {
		m.Trips[li][d.iter] = d.trips[i]
	}
}

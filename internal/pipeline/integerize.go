package pipeline

import (
	"math"
	"slices"
	"sync"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/obs"
)

// intOptions tunes the real-to-integer conversion (Section IV of the
// paper: N closest powers of two for memory capacities, n closest
// divisors per tile-size variable level by level, cross product, filter,
// evaluate with the model).
type intOptions struct {
	nDiv    int     // divisor candidates per variable (paper's n, 2–3)
	nPow2   int     // power-of-two candidates per capacity
	minUtil float64 // minimum PE utilization for fixed-arch candidates
	maxCand int     // cap on the leaves one search evaluates
}

// newIntOptions takes the integerization settings from resolved run
// options.
func newIntOptions(o Options) intOptions {
	return intOptions{
		nDiv:    o.NDiv,
		nPow2:   o.NPow2,
		minUtil: o.MinUtilization,
		maxCand: o.MaxCandidates,
	}
}

// integerizeStage converts the solve stage's tie band to integer
// designs. Each pair's divisor-ladder search is a leaf compute job
// admitted through the shared scheduler; results land in per-pair slots
// and are compacted in band order, so parallelism cannot change which
// candidates survive. When no pair yields an integer point, a fallback
// ladder shrinks the relaxed solutions geometrically toward the
// all-ones tiling (x^λ stays ≥ 1) and retries.
//
// The band is searched in two rounds: its first TopClasses pairs, then
// the rest. For delay, each second-round search starts from the first
// round's best Cycles as its incumbent and returns only a strictly
// better design. Second-round pairs come later in selectStage's strict
// order, so a design that merely tied the first round could never have
// won, and the seed only lets the branch and bound skip more. The seed
// needs MinUtilization 0: with a utilization filter a search falls back
// to unfiltered leaves when it finds none, which a seed would trigger.
type integerizeStage struct{}

func (integerizeStage) Name() string { return "integerize" }

func (integerizeStage) Run(r *Run) error {
	// One evaluator shared by every job: model.Evaluator is documented
	// safe for concurrent use (its volume cache is internally locked).
	ev := model.NewEvaluator(r.nest)
	iopt := newIntOptions(r.opts)
	candC := r.obs.Counter("core.int_candidates")
	seeded := r.opts.Criterion == model.MinDelay && iopt.minUtil == 0

	// integerizePass converts each pair under shrink(x), keeping only
	// designs that score strictly below seed, and returns the surviving
	// candidates in pair order.
	integerizePass := func(pairs []solvedPair, shrink func([]float64) []float64, seed float64) ([]*integerized, error) {
		out := make([]*integerized, len(pairs))
		var mu sync.Mutex
		err := r.sched.ForEach(r.ctx, len(pairs), func(i int) error {
			sp := pairs[i]
			c, rep, visited := r.integerizeOne(ev, iopt, candC, shrink(sp.x), sp, seed)
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
		k := min(r.opts.TopClasses, len(r.solved))
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
func (r *Run) integerizeOne(ev *model.Evaluator, iopt intOptions, candC *obs.Counter, x []float64, sp solvedPair, seed float64) (*candidate, *model.Report, int) {
	o := r.obs
	var ispan *obs.Span
	if o.TracingEnabled() {
		ispan = o.StartSpan(r.parent, "integerize", obs.Float("gp_objective", sp.objective))
	}
	evalSpan := o.StartSpan(ispan, "model-eval")
	perms := dataflow.StandardPerms(sp.permL1, sp.permSRAM)
	c, rep, visited := searchIntegerCandidates(ev, r.nest, perms, x, r.av, iopt, r.opts.Criterion, seed)
	candC.Add(int64(visited))
	if evalSpan != nil {
		evalSpan.SetAttr("candidates", int64(visited))
		evalSpan.End()
		ispan.SetAttr("found", c != nil)
		ispan.End()
	}
	return c, rep, visited
}

// dimCandidate is one integer tiling of a single iterator: SRAM tile S,
// per-PE tile Q, register tile R (S = N/t·..., with R | Q | S | N).
type dimCandidate struct {
	iter    int
	regTile int64 // R
	peTile  int64 // Q
	sramT   int64 // S
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

// dimCandidates generates up to n³ integer tilings for one free iterator
// following the paper's divisor ladder: SRAM tile candidates from the
// divisors of the extent, per-PE tile candidates from the divisors of
// each SRAM candidate, register tile candidates from the divisors of each
// per-PE candidate.
func dimCandidates(n *dataflow.Nest, it int, x []float64, opt intOptions) []dimCandidate {
	extent := n.Prob.Iters[it].Extent
	lv := make([]float64, 0, 4)
	for _, v := range n.DimTripVars(it) {
		lv = append(lv, x[v])
	}
	if len(lv) != 4 {
		return nil // pinned or unit iterator: no free tiling
	}
	realReg := lv[0]
	realPE := lv[0] * lv[1]
	realSRAM := lv[0] * lv[1] * lv[2]
	var out []dimCandidate
	for _, s := range loopnest.NearestDivisors(extent, realSRAM, opt.nDiv) {
		for _, q := range loopnest.NearestDivisors(s, realPE, opt.nDiv) {
			for _, r := range loopnest.NearestDivisors(q, realReg, opt.nDiv) {
				out = append(out, dimCandidate{iter: it, regTile: r, peTile: q, sramT: s})
			}
		}
	}
	// Deduplicate.
	slices.SortFunc(out, func(a, b dimCandidate) int {
		if a.sramT != b.sramT {
			if a.sramT < b.sramT {
				return -1
			}
			return 1
		}
		if a.peTile != b.peTile {
			if a.peTile < b.peTile {
				return -1
			}
			return 1
		}
		switch {
		case a.regTile < b.regTile:
			return -1
		case a.regTile > b.regTile:
			return 1
		}
		return 0
	})
	ded := out[:0]
	for i, c := range out {
		if i == 0 || c != out[i-1] {
			ded = append(ded, c)
		}
	}
	return ded
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
// order, each dimension's ladder ascending by (sramT, peTile, regTile)
// as dimCandidates deduplicates it, with the capacity pairs innermost.
// consider keeps the first of equal scores, so this order is the
// tie-break and must not change.
//
// Two exact prunes skip leaves that could never be kept. On a fixed
// architecture, a prefix whose PE product already exceeds the
// architecture's PEs is skipped in every criterion: the product only
// grows below it, and a leaf using more PEs than exist is invalid. For
// the delay criterion the search is also a branch and bound. A leaf's
// Cycles is at least ops/PEsUsed, and PEsUsed is the product of
// sramT/peTile over the free iterators (the standard nest's spatial
// level holds only tiled iterators). Below a partial assignment every
// leaf therefore uses at most the prefix's PE product times the largest
// sramT/peTile of each remaining ladder, capped at the fixed
// architecture's PE count. A subtree whose bound gives ops/PEs ≥ the
// incumbent's Cycles is skipped: float division is monotone, so none of
// its leaves could score strictly better. Energy and EDP searches have
// only the PE cap.
//
// seed is the score to beat: the search keeps only designs scoring
// strictly below it, and for delay it is the incumbent from the start
// (+Inf for none). It returns nil when no leaf beats it. A finite seed
// needs opt.minUtil 0, because a search that keeps nothing under the
// utilization filter retries without it.
//
// visited counts the leaves evaluated; pruned leaves are not counted,
// and only evaluated leaves count toward the maxCand cap.
func searchIntegerCandidates(ev *model.Evaluator, n *dataflow.Nest, perms [][]int, x []float64, av *archVars, opt intOptions, crit model.Criterion, seed float64) (best *candidate, bestRep *model.Report, visited int) {
	var freeIters []int
	for it := range n.Prob.Iters {
		if len(n.DimTripVars(it)) == 4 {
			freeIters = append(freeIters, it)
		}
	}
	perDim := make([][]dimCandidate, len(freeIters))
	for i, it := range freeIters {
		perDim[i] = dimCandidates(n, it, x, opt)
		if len(perDim[i]) == 0 {
			return nil, nil, 0
		}
	}
	var archs []arch.Arch
	if av.mode == CoDesign {
		for _, r := range pow2Candidates(x[av.varR], opt.nPow2) {
			for _, s := range pow2Candidates(x[av.varS], opt.nPow2) {
				archs = append(archs, arch.Arch{
					Name: "codesign", Regs: r, SRAM: s, PEs: 1, Tech: av.tech,
				})
			}
		}
	} else {
		archs = []arch.Arch{av.fixed}
	}

	// All candidates of this search share one permutation choice, so pin
	// the symbolic volumes in a session and stream every mapping through
	// it. Quick mode skips formatted violation messages — rejected
	// reports are discarded, and the winner (valid by construction) has
	// none.
	sess, err := ev.Session(perms)
	if err != nil {
		return nil, nil, 0
	}
	sess.Quick = true

	// One mapping, mutated per leaf: every leaf overwrites all four trip
	// levels of every free iterator, and consider() clones on keep, so
	// reuse cannot leak state between candidates.
	m := buildMapping(n, perms, nil)

	bestScore := seed
	consider := func(c *candidate, minUtil float64) {
		rep, err := sess.Evaluate(&c.archCfg, c.mapping)
		if err != nil || !rep.Valid() {
			return
		}
		if av.mode == FixedArch && rep.Utilization < minUtil {
			return
		}
		if score := model.Score(crit, rep); score < bestScore {
			cc := *c
			cc.mapping = c.mapping.Clone()
			best, bestRep, bestScore = &cc, rep.Clone(), score
		}
	}

	// PE cap: a fixed architecture's PE count (no cap in co-design,
	// where the area budget bounds each leaf).
	peCap := int64(math.MaxInt64)
	if av.mode == FixedArch {
		peCap = av.fixed.PEs
	}
	// Delay bound state: maxPEs[i] is the largest PE product the
	// dimensions i.. can contribute.
	var maxPEs []int64
	ops := float64(n.Prob.Ops())
	if crit == model.MinDelay {
		maxPEs = make([]int64, len(perDim)+1)
		maxPEs[len(perDim)] = 1
		for i := len(perDim) - 1; i >= 0; i-- {
			widest := int64(1)
			for _, c := range perDim[i] {
				widest = max(widest, c.sramT/c.peTile)
			}
			maxPEs[i] = maxPEs[i+1] * widest
		}
	}
	// cannotWin reports whether no leaf below a prefix with PE product
	// pes can be kept.
	cannotWin := func(i int, pes int64) bool {
		if pes > peCap {
			return true
		}
		return maxPEs != nil && ops/float64(min(pes*maxPEs[i], peCap)) >= bestScore
	}

	run := func(minUtil float64) {
		dims := make([]dimCandidate, 0, len(perDim))
		var rec func(i int, pes int64)
		rec = func(i int, pes int64) {
			if visited >= opt.maxCand || cannotWin(i, pes) {
				return
			}
			if i == len(perDim) {
				applyDims(n, m, dims)
				for _, a := range archs {
					ac := a
					if av.mode == CoDesign {
						ac.PEs = pes
						if ac.Area() > av.budget {
							continue
						}
					}
					visited++
					consider(&candidate{archCfg: ac, mapping: m}, minUtil)
				}
				return
			}
			for _, c := range perDim[i] {
				dims = append(dims, c)
				rec(i+1, pes*(c.sramT/c.peTile))
				dims = dims[:len(dims)-1]
			}
		}
		rec(0, 1)
	}
	run(opt.minUtil)
	if best == nil && opt.minUtil > 0 {
		visited = 0
		run(0)
	}
	return best, bestRep, visited
}

// buildMapping converts per-iterator tiling choices into a Mapping over
// the standard nest, starting from the pinned base.
func buildMapping(n *dataflow.Nest, perms [][]int, dims []dimCandidate) *model.Mapping {
	m := model.UniformMapping(n)
	m.Perms = make([][]int, len(perms))
	for i, p := range perms {
		if p != nil {
			m.Perms[i] = append([]int(nil), p...)
		}
	}
	applyDims(n, m, dims)
	return m
}

// applyDims writes per-iterator tiling choices into an existing mapping
// (all four standard levels of each chosen iterator are overwritten).
func applyDims(n *dataflow.Nest, m *model.Mapping, dims []dimCandidate) {
	for _, d := range dims {
		extent := n.Prob.Iters[d.iter].Extent
		m.Trips[dataflow.StandardLevelReg][d.iter] = d.regTile
		m.Trips[dataflow.StandardLevelL1][d.iter] = d.peTile / d.regTile
		m.Trips[dataflow.StandardLevelSpatial][d.iter] = d.sramT / d.peTile
		m.Trips[dataflow.StandardLevelSRAM][d.iter] = extent / d.sramT
	}
}

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

// integerizeStage converts the best TopClasses relaxed solutions to
// integer designs. Each pair's divisor-ladder search is a leaf compute
// job admitted through the shared scheduler; results land in per-pair
// slots and are compacted in solved-pair order, so parallelism cannot
// change which candidates survive. When no pair yields an integer point,
// a fallback ladder shrinks the relaxed solutions geometrically toward
// the all-ones tiling (x^λ stays ≥ 1) and retries.
type integerizeStage struct{}

func (integerizeStage) Name() string { return "integerize" }

func (integerizeStage) Run(r *Run) error {
	top := r.opts.TopClasses
	if top > len(r.solved) {
		top = len(r.solved)
	}
	// One evaluator shared by every job: model.Evaluator is documented
	// safe for concurrent use (its volume cache is internally locked).
	ev := model.NewEvaluator(r.nest)
	iopt := newIntOptions(r.opts)
	candC := r.obs.Counter("core.int_candidates")

	// integerizePass converts each of the top pairs under shrink(x) and
	// returns the surviving candidates in pair order.
	integerizePass := func(shrink func([]float64) []float64) ([]*integerized, error) {
		out := make([]*integerized, top)
		var mu sync.Mutex
		err := r.sched.ForEach(r.ctx, top, func(i int) error {
			sp := r.solved[i]
			c, rep, visited := r.integerizeOne(ev, iopt, candC, shrink(sp.x), sp)
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
		cands := out[:0]
		for _, c := range out {
			if c != nil {
				cands = append(cands, c)
			}
		}
		return cands, nil
	}

	identity := func(x []float64) []float64 { return x }
	cands, err := integerizePass(identity)
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		// Fallback ladder: on tight architectures the divisor ladder
		// around the relaxed solution can miss every exactly-feasible
		// integer point. Shrink the solution geometrically toward the
		// minimal (all-ones) tiling and retry.
		for _, lambda := range []float64{0.5, 0.25, 0} {
			cands, err = integerizePass(func(x []float64) []float64 {
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
// design, recording an integerize span whose model-eval child covers
// the streamed candidate evaluation.
func (r *Run) integerizeOne(ev *model.Evaluator, iopt intOptions, candC *obs.Counter, x []float64, sp solvedPair) (*candidate, *model.Report, int) {
	o := r.obs
	var ispan *obs.Span
	if o.TracingEnabled() {
		ispan = o.StartSpan(r.parent, "integerize", obs.Float("gp_objective", sp.objective))
	}
	evalSpan := o.StartSpan(ispan, "model-eval")
	perms := dataflow.StandardPerms(sp.permL1, sp.permSRAM)
	c, rep, visited := searchIntegerCandidates(ev, r.nest, perms, x, r.av, iopt, r.opts.Criterion)
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
// For the delay criterion the search is an exact branch and bound. A
// leaf's Cycles is at least ops/PEsUsed, and PEsUsed is the product of
// sramT/peTile over the free iterators (the standard nest's spatial
// level holds only tiled iterators). Below a partial assignment every
// leaf therefore uses at most the prefix's PE product times the largest
// sramT/peTile of each remaining ladder, capped at the fixed
// architecture's PE count (a leaf using more is invalid). A subtree
// whose bound gives ops/PEs ≥ the incumbent's Cycles is skipped: float
// division is monotone, so none of its leaves could score strictly
// better. Energy and EDP searches evaluate every leaf.
//
// visited counts the leaves evaluated; pruned leaves are not counted,
// and only evaluated leaves count toward the maxCand cap.
func searchIntegerCandidates(ev *model.Evaluator, n *dataflow.Nest, perms [][]int, x []float64, av *archVars, opt intOptions, crit model.Criterion) (best *candidate, bestRep *model.Report, visited int) {
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

	consider := func(c *candidate, minUtil float64) {
		rep, err := sess.Evaluate(&c.archCfg, c.mapping)
		if err != nil || !rep.Valid() {
			return
		}
		if av.mode == FixedArch && rep.Utilization < minUtil {
			return
		}
		if bestRep == nil || model.Score(crit, rep) < model.Score(crit, bestRep) {
			cc := *c
			cc.mapping = c.mapping.Clone()
			best, bestRep = &cc, rep.Clone()
		}
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
	// pes can beat the incumbent on delay.
	cannotWin := func(i int, pes int64) bool {
		if maxPEs == nil || bestRep == nil {
			return false
		}
		bound := pes * maxPEs[i]
		if av.mode == FixedArch {
			bound = min(bound, av.fixed.PEs)
		}
		return ops/float64(bound) >= bestRep.Cycles
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

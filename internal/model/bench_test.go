package model_test

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/workloads"
)

// leafWalk steps through integerize-search leaves in the search's
// depth-first order: free iterators in iterator order, the last one
// fastest, each ladder ascending by (SRAM, PE, register) tile, and the
// capacity pairs innermost, skipping pairs over the area budget. It
// wraps around at the end, so it never runs out.
type leafWalk struct {
	nest    *dataflow.Nest
	m       *model.Mapping
	free    []int
	ladders [][][3]int64 // per free iterator: (S, Q, R) tile chains
	idx     []int
	archs   []arch.Arch
	ai      int
	budget  float64
	// changed is the shallowest free iterator whose tiling moved since
	// the last setDelta; levels are the standard nest's four levels of a
	// free iterator, inner to outer, and trips setDelta's scratch.
	changed int
	levels  []int
	trips   []int64
}

// newLeafWalk builds the walk of the search around the co-design-delay
// design of resnet18_L10: each free iterator's ladder is the nDiv = 3
// divisor ladder around the design's tiles, and the capacity pairs are
// the two powers of two at and above its Regs and SRAM.
func newLeafWalk() (*leafWalk, error) {
	l, _ := workloads.ByName("resnet18_L10")
	p, err := l.Problem()
	if err != nil {
		return nil, err
	}
	res, err := core.Optimize(p, core.Options{Mode: core.CoDesign, Criterion: model.MinDelay, Parallel: 1})
	if err != nil {
		return nil, err
	}
	dp := res.Best
	n, err := core.NestFor(p, dp)
	if err != nil {
		return nil, err
	}
	w := &leafWalk{nest: n, m: dp.Mapping.Clone(), budget: arch.EyerissAreaBudget()}
	tr := dp.Mapping.Trips
	for it, iter := range n.Prob.Iters {
		if len(n.DimTripVars(it)) != 4 {
			continue
		}
		r := tr[dataflow.StandardLevelReg][it]
		q := r * tr[dataflow.StandardLevelL1][it]
		s := q * tr[dataflow.StandardLevelSpatial][it]
		var ladder [][3]int64
		for _, ss := range loopnest.NearestDivisors(iter.Extent, float64(s), 3) {
			for _, qq := range loopnest.NearestDivisors(ss, float64(q), 3) {
				for _, rr := range loopnest.NearestDivisors(qq, float64(r), 3) {
					ladder = append(ladder, [3]int64{ss, qq, rr})
				}
			}
		}
		slices.SortFunc(ladder, func(a, b [3]int64) int { return slices.Compare(a[:], b[:]) })
		w.free = append(w.free, it)
		w.ladders = append(w.ladders, slices.Compact(ladder))
	}
	for _, regs := range []int64{dp.Arch.Regs, 2 * dp.Arch.Regs} {
		for _, sram := range []int64{dp.Arch.SRAM, 2 * dp.Arch.SRAM} {
			w.archs = append(w.archs, arch.Arch{Name: "codesign", Regs: regs, SRAM: sram, PEs: 1, Tech: dp.Arch.Tech})
		}
	}
	w.idx = make([]int, len(w.free))
	w.levels = []int{dataflow.StandardLevelReg, dataflow.StandardLevelL1, dataflow.StandardLevelSpatial, dataflow.StandardLevelSRAM}
	w.trips = make([]int64, len(w.levels))
	w.apply()
	return w, nil
}

// apply writes the current tiling into the mapping and the PEs it uses
// into the capacity pairs, as the search does at each tiling.
func (w *leafWalk) apply() {
	pes := int64(1)
	tr := w.m.Trips
	for i, it := range w.free {
		c := w.ladders[i][w.idx[i]]
		s, q, r := c[0], c[1], c[2]
		tr[dataflow.StandardLevelReg][it] = r
		tr[dataflow.StandardLevelL1][it] = q / r
		tr[dataflow.StandardLevelSpatial][it] = s / q
		tr[dataflow.StandardLevelSRAM][it] = w.nest.Prob.Iters[it].Extent / s
		pes *= s / q
	}
	for i := range w.archs {
		w.archs[i].PEs = pes
	}
}

// next returns the next leaf's architecture; the mapping is w.m.
func (w *leafWalk) next() *arch.Arch {
	for {
		if w.ai++; w.ai == len(w.archs) {
			w.ai = 0
			i := len(w.idx) - 1
			for ; i > 0; i-- {
				if w.idx[i]++; w.idx[i] < len(w.ladders[i]) {
					break
				}
				w.idx[i] = 0
			}
			if i == 0 {
				w.idx[0] = (w.idx[0] + 1) % len(w.ladders[0])
			}
			w.changed = min(w.changed, i)
			w.apply()
		}
		if a := &w.archs[w.ai]; a.Area() <= w.budget {
			return a
		}
	}
}

// setDelta gives the session the tiling's changes through the delta
// entry, as the search does at a scored leaf: every free iterator from
// the shallowest one that moved down.
func (w *leafWalk) setDelta(sess *model.EvalSession) error {
	for i := w.changed; i < len(w.free); i++ {
		it := w.free[i]
		for j, li := range w.levels {
			w.trips[j] = w.m.Trips[li][it]
		}
		if err := sess.SetIter(it, w.levels, w.trips); err != nil {
			return err
		}
	}
	w.changed = len(w.free)
	return nil
}

var evalWalk struct {
	sync.Once
	w   *leafWalk
	err error
}

// BenchmarkEvalSession times the model.Evaluate rung of the integerize
// search: one memoized session stepping through resnet18_L10's
// co-design-delay leaves in the search's order (see leafWalk). One
// iteration is one leaf; it reports ns/leaf and allocs/leaf, and the
// steady state allocates nothing. "generic" gives each leaf's whole
// mapping to Evaluate; "delta" sets only the iterators whose tiling
// moved (SetIter), as the search does, and prices each capacity pair.
func BenchmarkEvalSession(b *testing.B) {
	evalWalk.Do(func() { evalWalk.w, evalWalk.err = newLeafWalk() })
	w := evalWalk.w
	if evalWalk.err != nil {
		b.Fatal(evalWalk.err)
	}
	for _, delta := range []bool{false, true} {
		name := "generic"
		if delta {
			name = "delta"
		}
		b.Run(name, func(b *testing.B) {
			sess, err := model.NewEvaluator(w.nest).Session(w.m.Perms)
			if err != nil {
				b.Fatal(err)
			}
			sess.Quick = true
			if _, err := sess.Evaluate(w.next(), w.m); err != nil {
				b.Fatal(err)
			}
			w.changed = len(w.free)
			leaf := func(a *arch.Arch) error {
				_, err := sess.Evaluate(a, w.m)
				return err
			}
			if delta {
				leaf = func(a *arch.Arch) error {
					if err := w.setDelta(sess); err != nil {
						return err
					}
					_, err := sess.Price(a)
					return err
				}
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := leaf(w.next()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/leaf")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/leaf")
		})
	}
}

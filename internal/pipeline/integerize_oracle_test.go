package pipeline

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
)

// bruteForceIntegerize is the oracle for searchIntegerCandidates: it
// evaluates every leaf of the same per-dimension ladder × capacity cross
// product, in the same order, with no bound, and keeps the first strict
// minimum. The cross product is walked as an odometer (last dimension
// fastest), not by recursion, so it shares no control flow with the
// search under test. leaves counts the leaves whose PE product fits a
// fixed architecture (all of them in co-design), all counts every leaf.
func bruteForceIntegerize(n *dataflow.Nest, perms [][]int, x []float64, av *archVars, opt intOptions, crit model.Criterion) (best *candidate, bestRep *model.Report, leaves, all int) {
	var perDim [][]dimCandidate
	for it := range n.Prob.Iters {
		if len(n.DimTripVars(it)) != 4 {
			continue
		}
		d := dimCandidates(n, it, x, opt)
		if len(d) == 0 {
			return nil, nil, 0, 0
		}
		perDim = append(perDim, d)
	}
	archs := []arch.Arch{av.fixed}
	if av.mode == CoDesign {
		archs = nil
		for _, r := range pow2Candidates(x[av.varR], opt.nPow2) {
			for _, s := range pow2Candidates(x[av.varS], opt.nPow2) {
				archs = append(archs, arch.Arch{Name: "codesign", Regs: r, SRAM: s, PEs: 1, Tech: av.tech})
			}
		}
	}
	sess, err := model.NewEvaluator(n).Session(perms)
	if err != nil {
		return nil, nil, 0, 0
	}
	pass := func(minUtil float64) {
		idx := make([]int, len(perDim))
		for {
			m := buildMapping(n, perms, nil)
			pes := int64(1)
			for i, j := range idx {
				c := perDim[i][j]
				applyDims(n, m, []dimCandidate{c})
				pes *= c.sramT / c.peTile
			}
			for _, a := range archs {
				if av.mode == CoDesign {
					a.PEs = pes
					if a.Area() > av.budget {
						continue
					}
				}
				all++
				if pes <= a.PEs {
					leaves++
				}
				rep, err := sess.Evaluate(&a, m)
				if err != nil || !rep.Valid() || (av.mode == FixedArch && rep.Utilization < minUtil) {
					continue
				}
				if bestRep == nil || model.Score(crit, rep) < model.Score(crit, bestRep) {
					best = &candidate{archCfg: a, mapping: m.Clone()}
					bestRep = rep.Clone()
				}
			}
			i := len(idx) - 1
			for ; i >= 0; i-- {
				if idx[i]++; idx[i] < len(perDim[i]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				return
			}
		}
	}
	pass(opt.minUtil)
	if best == nil && opt.minUtil > 0 {
		leaves, all = 0, 0
		pass(0)
	}
	return best, bestRep, leaves, all
}

// randomOracleProblem draws a small conv or matmul with prime extents,
// 1×1 kernels and strides among its shapes.
func randomOracleProblem(t *testing.T, rng *rand.Rand) *loopnest.Problem {
	t.Helper()
	pick := func(vals ...int64) int64 { return vals[rng.Intn(len(vals))] }
	if rng.Intn(3) == 0 {
		return loopnest.MatMul(pick(2, 7, 12, 13, 16, 32), pick(3, 8, 11, 24, 64), pick(1, 5, 9, 16, 31))
	}
	rs := pick(1, 3, 5)
	stride := pick(1, 2)
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		N: 1, K: pick(2, 7, 8, 16, 24), C: pick(1, 3, 5, 8, 12),
		H: pick(3, 7, 13, 14), W: pick(2, 5, 7, 8),
		R: rs, S: rs, StrideX: stride, StrideY: stride,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestIntegerizeMatchesBruteForce checks that the integerize search's
// prunes skip only leaves that could never be kept: on seeded random
// small problems, in both modes, searchIntegerCandidates must return the
// same architecture, mapping and report, bit for bit, as evaluating
// every leaf. Energy searches have only the PE cap, so they must
// evaluate exactly the oracle's leaves whose PE product fits. A delay
// search seeded with the oracle's best Cycles must find nothing, and
// one seeded just above must still find the oracle's design.
func TestIntegerizeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	// A small fixed architecture makes the PE cap bind; Eyeriss does not
	// for most of these shapes.
	small := arch.Arch{Name: "small", PEs: 12, Regs: 64, SRAM: 2048, Tech: arch.Tech45nm()}
	eyeriss := arch.Eyeriss()
	var delayVisited, delayLeaves, fitLeaves, allLeaves, seeded int
	for trial := 0; trial < 24; trial++ {
		p := randomOracleProblem(t, rng)
		for _, mode := range []Mode{FixedArch, CoDesign} {
			fixed := &eyeriss
			if trial%2 == 1 {
				fixed = &small
			}
			r, err := newRun(context.Background(), p, Options{Mode: mode, Arch: fixed}.WithDefaults(), nil)
			if err != nil {
				t.Fatal(err)
			}
			n, av := r.nest, r.av
			// A random relaxed point: each free iterator's extent split
			// over its four trip variables in log space.
			x := make([]float64, n.Vars.Len())
			for i := range x {
				x[i] = 1
			}
			for it := range n.Prob.Iters {
				vars := n.DimTripVars(it)
				if len(vars) != 4 {
					continue
				}
				w := make([]float64, 4)
				sum := 0.0
				for i := range w {
					w[i] = rng.Float64() + 0.05
					sum += w[i]
				}
				for i, v := range vars {
					x[v] = math.Pow(float64(n.Prob.Iters[it].Extent), w[i]/sum)
				}
			}
			if mode == CoDesign {
				x[av.varR] = math.Exp2(2 + 8*rng.Float64())
				x[av.varS] = math.Exp2(8 + 10*rng.Float64())
			}
			l1 := rng.Perm(len(n.Levels[dataflow.StandardLevelL1].Active))
			sram := rng.Perm(len(n.Levels[dataflow.StandardLevelSRAM].Active))
			for i, j := range l1 {
				l1[i] = n.Levels[dataflow.StandardLevelL1].Active[j]
			}
			for i, j := range sram {
				sram[i] = n.Levels[dataflow.StandardLevelSRAM].Active[j]
			}
			perms := dataflow.StandardPerms(l1, sram)
			opt := intOptions{nDiv: 2 + trial%2, nPow2: 2, maxCand: 1 << 20}
			if trial%3 == 2 {
				opt.minUtil = 0.5
			}
			for _, crit := range []model.Criterion{model.MinDelay, model.MinEnergy} {
				search := func(seed float64) (*candidate, *model.Report, int) {
					return searchIntegerCandidates(model.NewEvaluator(n), n, perms, x, av, opt, crit, seed)
				}
				got, gotRep, visited := search(math.Inf(1))
				want, wantRep, leaves, all := bruteForceIntegerize(n, perms, x, av, opt, crit)
				name := p.Name + " " + mode.String() + " " + crit.String()
				sameDesign(t, name, got, gotRep, want, wantRep)
				switch {
				case crit == model.MinEnergy && visited != leaves:
					t.Errorf("%s: energy search evaluated %d leaves, oracle %d that fit", name, visited, leaves)
				case visited > leaves:
					t.Errorf("%s: delay search evaluated %d leaves, more than the oracle's %d that fit", name, visited, leaves)
				}
				fitLeaves += leaves
				allLeaves += all
				if crit != model.MinDelay {
					continue
				}
				delayVisited += visited
				delayLeaves += leaves
				if want == nil || opt.minUtil > 0 {
					continue
				}
				seeded++
				if c, _, _ := search(wantRep.Cycles); c != nil {
					t.Errorf("%s: seeded with the oracle's best %v cycles, the search kept %v", name, wantRep.Cycles, c.archCfg)
				}
				c, rep, v := search(math.Nextafter(wantRep.Cycles, math.Inf(1)))
				sameDesign(t, name+" seeded", c, rep, want, wantRep)
				if v > visited {
					t.Errorf("%s: seeded search evaluated %d leaves, unseeded %d", name, v, visited)
				}
			}
		}
	}
	t.Logf("delay searches evaluated %d of %d leaves; %d of %d leaves fit the PE cap; %d seeded searches",
		delayVisited, delayLeaves, fitLeaves, allLeaves, seeded)
	if delayVisited >= delayLeaves {
		t.Errorf("the delay bound never pruned: %d of %d leaves evaluated", delayVisited, delayLeaves)
	}
	if fitLeaves >= allLeaves || seeded == 0 {
		t.Errorf("the PE cap or the seed was never exercised: %d of %d leaves fit, %d seeded searches", fitLeaves, allLeaves, seeded)
	}
}

// sameDesign reports a search result that differs from the oracle's in
// presence, architecture, mapping or any bit of its report.
func sameDesign(t *testing.T, name string, got *candidate, gotRep *model.Report, want *candidate, wantRep *model.Report) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("%s: found %v, oracle found %v", name, got != nil, want != nil)
		return
	}
	if got == nil {
		return
	}
	if !reflect.DeepEqual(got.archCfg, want.archCfg) || !reflect.DeepEqual(got.mapping, want.mapping) {
		t.Errorf("%s: design %+v %v, oracle %+v %v", name,
			got.archCfg, got.mapping.Trips, want.archCfg, want.mapping.Trips)
	}
	if math.Float64bits(gotRep.Cycles) != math.Float64bits(wantRep.Cycles) ||
		math.Float64bits(gotRep.Energy) != math.Float64bits(wantRep.Energy) ||
		!reflect.DeepEqual(gotRep, wantRep) {
		t.Errorf("%s: report %+v, oracle %+v", name, gotRep, wantRep)
	}
}

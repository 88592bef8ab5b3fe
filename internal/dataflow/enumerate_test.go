package dataflow

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/loopnest"
	"repro/internal/workloads"
)

// perPermClasses is EnumerateClasses with its key built the direct way:
// every tensor's DV rebuilt by Algorithm 1 and keyed, plain and under
// each involution, for every permutation. It is the oracle for the
// signature-keyed enumeration.
func perPermClasses(t *testing.T, n *Nest, li int, syms []Involution) []PermClass {
	t.Helper()
	df, swaps, err := n.classInputs(li, syms)
	if err != nil {
		t.Fatal(err)
	}
	var kb expr.KeyBuf
	var keyBuf, bestBuf []byte
	dvs := make([]expr.Product, len(df))
	return n.collectClasses(li, func(perm []int) []byte {
		for ti, tn := range n.Prob.Tensors {
			_, dvs[ti] = n.constructExpr(li, perm, tn, df[ti])
		}
		bestBuf = bestBuf[:0]
		for ti := range dvs {
			if ti > 0 {
				bestBuf = append(bestBuf, ';')
			}
			bestBuf = kb.AppendProductKey(bestBuf, dvs[ti], nil)
		}
		for _, swap := range swaps {
			keyBuf = keyBuf[:0]
			for ti := range dvs {
				if ti > 0 {
					keyBuf = append(keyBuf, ';')
				}
				keyBuf = kb.AppendProductKey(keyBuf, dvs[ti], swap)
			}
			if bytes.Compare(keyBuf, bestBuf) < 0 {
				bestBuf, keyBuf = keyBuf, bestBuf
			}
		}
		return bestBuf
	})
}

// enumerationProblems returns the 23 Table II layers plus a matmul and a
// stride-2 1×1 convolution.
func enumerationProblems(t testing.TB) []*loopnest.Problem {
	t.Helper()
	probs, err := workloads.Problems(workloads.All())
	if err != nil {
		t.Fatal(err)
	}
	conv, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "pointwise_s2", N: 1, K: 64, C: 32, H: 28, W: 28, R: 1, S: 1, StrideX: 2, StrideY: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(probs, loopnest.MatMul(64, 128, 32), conv)
}

// deepNest builds a four-buffer nest over p's non-unit iterators: two
// copy levels below the PE grid and one above it.
func deepNest(t *testing.T, p *loopnest.Problem) *Nest {
	t.Helper()
	var active []int
	for i, it := range p.Iters {
		if it.Extent > 1 {
			active = append(active, i)
		}
	}
	n, err := NewNest(p, []LevelConfig{
		{Name: "t0", Kind: Temporal, Active: active},
		{Name: "c0", Kind: Temporal, Copy: true, Active: active},
		{Name: "c1", Kind: Temporal, Copy: true, Active: active},
		{Name: "pe", Kind: Spatial, Active: active},
		{Name: "c2", Kind: Temporal, Copy: true, Active: active},
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestEnumerateClassesMatchesPerPermutation checks that keying each
// tensor's DV by its signature yields byte-identical classes — keys,
// representatives, sizes and order — to building every permutation's
// DVs, with and without symmetry involutions: at both copy levels of
// every Table II layer under both RS placements, and at the three copy
// levels of a deeper nest.
func TestEnumerateClassesMatchesPerPermutation(t *testing.T) {
	check := func(n *Nest, name string, levels []int) {
		for _, syms := range [][]Involution{SymmetricInvolutions(n.Prob), nil} {
			for _, li := range levels {
				got, err := n.EnumerateClasses(li, syms)
				if err != nil {
					t.Fatal(err)
				}
				if want := perPermClasses(t, n, li, syms); !reflect.DeepEqual(got, want) {
					t.Errorf("%s level %d (%d involutions): %d classes, oracle %d\n got %+v\nwant %+v",
						name, li, len(syms), len(got), len(want), got, want)
				}
			}
		}
	}
	probs := enumerationProblems(t)
	for _, p := range probs {
		for _, rs := range []RSPlacement{RSAtRegister, RSAtLevel1} {
			n, err := StandardNest(p, StandardOptions{RS: rs})
			if err != nil {
				t.Fatal(err)
			}
			check(n, p.Name+" "+rs.String(), []int{StandardLevelL1, StandardLevelSRAM})
		}
	}
	for _, p := range []*loopnest.Problem{probs[0], probs[len(probs)-2]} {
		check(deepNest(t, p), p.Name+" deep", []int{1, 2, 4})
	}
}

// BenchmarkEnumerateClasses times one enumeration sweep: both copy
// levels of every Table II layer under each RS placement, with symmetry
// involutions, as the pipeline's enumerate stage runs them.
func BenchmarkEnumerateClasses(b *testing.B) {
	probs, err := workloads.Problems(workloads.All())
	if err != nil {
		b.Fatal(err)
	}
	type level struct {
		n    *Nest
		syms []Involution
	}
	var nests []level
	for _, p := range probs {
		for _, rs := range []RSPlacement{RSAtRegister, RSAtLevel1} {
			n, err := StandardNest(p, StandardOptions{RS: rs})
			if err != nil {
				b.Fatal(err)
			}
			nests = append(nests, level{n, SymmetricInvolutions(p)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, l := range nests {
			for _, li := range []int{StandardLevelL1, StandardLevelSRAM} {
				if _, err := l.n.EnumerateClasses(li, l.syms); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// TestEnumerateClassesRejectsWideProblems checks that a problem with
// more iterators than a dvSig's hoisted-set bitmask holds is refused
// rather than enumerated with colliding signatures.
func TestEnumerateClassesRejectsWideProblems(t *testing.T) {
	p := loopnest.MatMul(8, 8, 8)
	for len(p.Iters) <= 64 {
		p.Iters = append(p.Iters, loopnest.Iter{Name: fmt.Sprintf("u%d", len(p.Iters)), Extent: 1})
	}
	n, err := StandardNest(p, StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.EnumerateClasses(StandardLevelL1, nil); !errors.Is(err, ErrBadNest) {
		t.Fatalf("65 iterators: err = %v, want ErrBadNest", err)
	}
}

package refsim

import (
	"math/rand"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
)

// checkAgainstModel verifies the oracle against the symbolic Algorithm-1
// volumes for one mapping, per boundary and per tensor.
func checkAgainstModel(t *testing.T, n *dataflow.Nest, m *model.Mapping) {
	t.Helper()
	got, err := Traffic(n, m)
	if err != nil {
		t.Fatal(err)
	}
	v, err := n.ComputeVolumes(m.Perms)
	if err != nil {
		t.Fatal(err)
	}
	x := n.Assignment(n.Vars.Len(), m.Trips)
	for b := range got {
		for ti := range got[b] {
			want := v.Traffic[b][ti].Eval(x)
			if float64(got[b][ti]) != want {
				t.Errorf("boundary %d tensor %s: oracle %d, Algorithm 1 %v (trips %v, perms %v)",
					b, n.Prob.Tensors[ti].Name, got[b][ti], want, m.Trips, m.Perms)
			}
		}
	}
}

func TestOracleMatmulPaperMapping(t *testing.T) {
	p := loopnest.MatMul(16, 16, 16)
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := &model.Mapping{
		Perms: dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1}),
		Trips: [][]int64{
			{2, 2, 2},
			{2, 2, 2},
			{2, 2, 1},
			{2, 2, 4},
		},
	}
	checkAgainstModel(t, n, m)
}

// TestOracleConvStrided is the load-bearing case: strided convolution
// with pinned 3×3 kernels, where halo extents (2t_h + t_r − 2 style) and
// hoisting interact. Any off-by-one in Algorithm 1 or in the extent
// formulas would break the exact agreement.
func TestOracleConvStrided(t *testing.T) {
	for _, stride := range []int64{1, 2} {
		p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
			Name: "c", N: 1, K: 4, C: 4, H: 8, W: 8, R: 3, S: 3,
			StrideX: stride, StrideY: stride,
		})
		if err != nil {
			t.Fatal(err)
		}
		n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := model.UniformMapping(n)
		// k: 1·2·2·1, c: 2·1·1·2, h: 2·1·2·2, w: 1·2·1·4.
		set := func(it int, a, b, c2, d int64) {
			m.Trips[0][it], m.Trips[1][it], m.Trips[2][it], m.Trips[3][it] = a, b, c2, d
		}
		set(loopnest.ConvK, 1, 2, 2, 1)
		set(loopnest.ConvC, 2, 1, 1, 2)
		set(loopnest.ConvH, 2, 1, 2, 2)
		set(loopnest.ConvW, 1, 2, 1, 4)
		m.Perms[dataflow.StandardLevelL1] = []int{loopnest.ConvK, loopnest.ConvC, loopnest.ConvH, loopnest.ConvW}
		m.Perms[dataflow.StandardLevelSRAM] = []int{loopnest.ConvW, loopnest.ConvH, loopnest.ConvC, loopnest.ConvK}
		checkAgainstModel(t, n, m)
	}
}

// TestOracleDilatedConv covers the dilation extension. Dilated kernels
// touch non-contiguous addresses, while the footprint model (like the
// paper's) uses the rectangular bounding box; the model is therefore an
// upper bound rather than exact here, tight when register tiles span
// enough output positions to fill the holes.
func TestOracleDilatedConv(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "d", N: 1, K: 4, C: 2, H: 6, W: 6, R: 3, S: 3,
		StrideX: 1, StrideY: 1, DilationX: 2, DilationY: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := model.UniformMapping(n)
	set := func(it int, a, b, c2, d int64) {
		m.Trips[0][it], m.Trips[1][it], m.Trips[2][it], m.Trips[3][it] = a, b, c2, d
	}
	set(loopnest.ConvK, 2, 1, 2, 1)
	set(loopnest.ConvC, 1, 2, 1, 1)
	set(loopnest.ConvH, 3, 1, 1, 2)
	set(loopnest.ConvW, 1, 2, 3, 1)
	m.Perms[dataflow.StandardLevelL1] = []int{loopnest.ConvC, loopnest.ConvW, loopnest.ConvK, loopnest.ConvH}
	m.Perms[dataflow.StandardLevelSRAM] = []int{loopnest.ConvH, loopnest.ConvK, loopnest.ConvC, loopnest.ConvW}
	got, err := Traffic(n, m)
	if err != nil {
		t.Fatal(err)
	}
	v, err := n.ComputeVolumes(m.Perms)
	if err != nil {
		t.Fatal(err)
	}
	x := n.Assignment(n.Vars.Len(), m.Trips)
	for b := range got {
		for ti := range got[b] {
			bound := v.Traffic[b][ti].Eval(x)
			if float64(got[b][ti]) > bound {
				t.Errorf("boundary %d tensor %s: oracle %d exceeds model bound %v",
					b, n.Prob.Tensors[ti].Name, got[b][ti], bound)
			}
		}
	}
}

// checkSums verifies the oracle's per-boundary totals against the
// evaluator's memoized sums (model.EvalSession.Sums) for one mapping.
func checkSums(t *testing.T, n *dataflow.Nest, m *model.Mapping) {
	t.Helper()
	got, err := Traffic(n, m)
	if err != nil {
		t.Fatal(err)
	}
	s, err := model.NewEvaluator(n).Session(m.Perms)
	if err != nil {
		t.Fatal(err)
	}
	traffic, _, err := s.Sums(m.Trips)
	if err != nil {
		t.Fatal(err)
	}
	if len(traffic) != len(got) {
		t.Fatalf("%d boundaries summed, oracle has %d", len(traffic), len(got))
	}
	for b := range got {
		var sum int64
		for _, words := range got[b] {
			sum += words
		}
		if float64(sum) != traffic[b] {
			t.Errorf("boundary %d: oracle %d words, EvalSession.Sums %v (trips %v, perms %v)",
				b, sum, traffic[b], m.Trips, m.Perms)
		}
	}
}

// TestOracleRandomMappings fuzzes mappings of a small conv and a small
// matmul against the symbolic volumes, on the standard nest and, for
// both kernel-loop placements, on a depth-3 nest (registers, a per-PE
// buffer, the SRAM) against the evaluator's boundary sums.
func TestOracleRandomMappings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	probs := []*loopnest.Problem{
		loopnest.MatMul(8, 12, 8),
	}
	if conv, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "f", N: 1, K: 4, C: 3, H: 6, W: 6, R: 3, S: 3, StrideX: 1, StrideY: 1,
	}); err == nil {
		probs = append(probs, conv)
	}
	for _, p := range probs {
		n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 12; trial++ {
			m := randomMapping(rng, n)
			checkAgainstModel(t, n, m)
		}
		for _, rs := range []dataflow.RSPlacement{dataflow.RSAtRegister, dataflow.RSAtLevel1} {
			deep, err := dataflow.BuildNest(p, 3, 1, rs)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 12; trial++ {
				m := randomMapping(rng, deep)
				checkAgainstModel(t, deep, m)
				checkSums(t, deep, m)
			}
		}
	}
}

func randomMapping(rng *rand.Rand, n *dataflow.Nest) *model.Mapping {
	m := model.UniformMapping(n)
	for it, iter := range n.Prob.Iters {
		free := n.FreeLevels(it)
		pinned := int64(1)
		for _, pin := range n.Pins {
			if n.IterOfVar(pin.Var) == it {
				pinned *= int64(pin.Value)
			}
		}
		rest := iter.Extent / pinned
		for pos, li := range free {
			if pos == len(free)-1 {
				m.Trips[li][it] = rest
				break
			}
			ds := divisorsOf(rest)
			d := ds[rng.Intn(len(ds))]
			m.Trips[li][it] = d
			rest /= d
		}
	}
	for li := range n.Levels {
		lvl := &n.Levels[li]
		if lvl.Kind == dataflow.Temporal && lvl.Copy {
			perm := append([]int(nil), lvl.Active...)
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			m.Perms[li] = perm
		}
	}
	return m
}

func divisorsOf(n int64) []int64 {
	var out []int64
	for d := int64(1); d <= n; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

func TestOracleRejectsHugeSpaces(t *testing.T) {
	p := loopnest.MatMul(1024, 1024, 1024)
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := model.UniformMapping(n)
	if _, err := Traffic(n, m); err == nil {
		t.Fatal("expected ErrTooLarge")
	}
}

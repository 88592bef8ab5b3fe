package dataflow

import (
	"errors"
	"maps"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/loopnest"
)

const (
	itI = 0
	itJ = 1
	itK = 2
)

// matmulNest builds the standard nest for a 64³ matmul.
func matmulNest(t *testing.T) *Nest {
	t.Helper()
	p := loopnest.MatMul(64, 64, 64)
	n, err := StandardNest(p, StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// matmulTrips builds trips matching the paper's Fig. 1 shape:
// per dimension d: reg r_d, L1 q_d, spatial p_d, SRAM t_d with
// r·q·p·t = 64. k is not parallelized (p_k = 1), as in the paper.
func matmulTrips() [][]int64 {
	return [][]int64{
		{4, 4, 4}, // reg
		{2, 2, 4}, // q
		{2, 2, 1}, // spatial
		{4, 4, 4}, // sram
	}
}

func computeMatmulVolumes(t *testing.T, n *Nest) *Volumes {
	t.Helper()
	// SRAM perm (outer→inner) = i, k, j; L1 perm = i, j, k (paper Fig. 1).
	v, err := n.ComputeVolumes(StandardPerms([]int{itI, itJ, itK}, []int{itI, itK, itJ}))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMatmulEq1 checks the DRAM→SRAM volumes against the closed forms of
// the paper's Eq. 1 (doubling C for read+write).
func TestMatmulEq1(t *testing.T) {
	n := matmulNest(t)
	v := computeMatmulVolumes(t, n)
	x := n.Assignment(n.Vars.Len(), matmulTrips())
	if err := n.CheckTrips(matmulTrips()); err != nil {
		t.Fatal(err)
	}
	const (
		N  = 64.0
		Si = 4 * 2 * 2 // r·q·p for i
		Sk = 4 * 4 * 1
	)
	wantA := N * N          // Ni·Nk
	wantB := N * N * N / Si // NiNjNk/Si
	wantC := 2 * N * N * N / Sk
	sramB := 1 // boundary index: 0 = registers, 1 = SRAM
	got := []float64{
		v.Traffic[sramB][0].Eval(x),
		v.Traffic[sramB][1].Eval(x),
		v.Traffic[sramB][2].Eval(x),
	}
	if got[0] != wantA || got[1] != wantB || got[2] != wantC {
		t.Fatalf("DRAM→SRAM volumes = %v, want [%v %v %v]", got, wantA, wantB, wantC)
	}
}

// TestMatmulEq2 checks the SRAM→register volumes against Eq. 2 with
// P_k = 1 (the paper's simplification).
func TestMatmulEq2(t *testing.T) {
	n := matmulNest(t)
	v := computeMatmulVolumes(t, n)
	x := n.Assignment(n.Vars.Len(), matmulTrips())
	const (
		N  = 64.0
		Rj = 4.0
		Pj = 2.0
		Ri = 4.0
		Pi = 2.0
		Sk = 16.0
	)
	wantA := N * N * N / (Rj * Pj)
	wantB := N * N * N / (Ri * Pi)
	wantC := 2 * N * N * N / Sk
	got := []float64{
		v.Traffic[0][0].Eval(x),
		v.Traffic[0][1].Eval(x),
		v.Traffic[0][2].Eval(x),
	}
	if got[0] != wantA || got[1] != wantB || got[2] != wantC {
		t.Fatalf("SRAM→reg volumes = %v, want [%v %v %v]", got, wantA, wantB, wantC)
	}
}

func TestMatmulFootprints(t *testing.T) {
	n := matmulNest(t)
	v := computeMatmulVolumes(t, n)
	x := n.Assignment(n.Vars.Len(), matmulTrips())
	// Register tile: A r_i·r_k = 16, B 16, C 16.
	for ti := 0; ti < 3; ti++ {
		if got := v.Footprint[0][ti].Eval(x); got != 16 {
			t.Fatalf("reg footprint[%d] = %v, want 16", ti, got)
		}
	}
	// SRAM: A S_i·S_k = 16·16, B S_k·S_j, C S_i·S_j.
	wants := []float64{16 * 16, 16 * 16, 16 * 16}
	for ti := 0; ti < 3; ti++ {
		if got := v.Footprint[1][ti].Eval(x); got != wants[ti] {
			t.Fatalf("SRAM footprint[%d] = %v, want %v", ti, got, wants[ti])
		}
	}
	// Top: full matrices 64×64.
	for ti := 0; ti < 3; ti++ {
		if got := v.TopFootprint[ti].Eval(x); got != 64*64 {
			t.Fatalf("top footprint[%d] = %v, want 4096", ti, got)
		}
	}
	if got := v.SumFootprint(1, false).Eval(x); got != 3*256 {
		t.Fatalf("SumFootprint = %v", got)
	}
	if got := v.EvalFootprint(1, x); got != 3*256 {
		t.Fatalf("EvalFootprint = %v", got)
	}
	if got, want := v.EvalTraffic(1, x), v.SumTraffic(1, false).Eval(x); got != want {
		t.Fatalf("EvalTraffic %v != SumTraffic %v", got, want)
	}
}

// TestMulticastReadWrite: with p_k > 1 a read-write tensor (C) pays
// spatial reduction traffic, while read-only tensors multicast.
func TestMulticastReadWrite(t *testing.T) {
	n := matmulNest(t)
	v := computeMatmulVolumes(t, n)
	trips := [][]int64{
		{4, 4, 4},
		{2, 2, 2},
		{2, 2, 2}, // p_k = 2 now
		{4, 4, 4},
	}
	if err := n.CheckTrips(trips); err != nil {
		t.Fatal(err)
	}
	x := n.Assignment(n.Vars.Len(), trips)
	N := 64.0
	// A: NiNjNk/(Rj·Pj); the p_k multicast means k-parallel PEs share A? No:
	// A uses k, so p_k multiplies footprint, not multicast. j is absent in
	// A: multicast across p_j.
	wantA := N * N * N / (4 * 2)
	if got := v.Traffic[0][0].Eval(x); got != wantA {
		t.Fatalf("A S→R = %v, want %v", got, wantA)
	}
	// C: absent iterator k at spatial level, read-write ⇒ ×p_k, no
	// multicast: 2·NiNjNk/(r_k·q_k) with r_k·q_k = 8.
	wantC := 2 * N * N * N / 8
	if got := v.Traffic[0][2].Eval(x); got != wantC {
		t.Fatalf("C S→R = %v, want %v", got, wantC)
	}
}

// TestTableI reproduces the paper's Table I step-by-step result: the
// level-1 data volumes of In and Out for the convolution access
// In[n][c][h+r][2w+s] under the level-1 permutation ⟨w,n,k,h,c,s,r⟩
// with r and s tiled at level 1 (symbolic q_r, q_s).
func TestTableI(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "tableI", N: 4, K: 4, C: 4, H: 8, W: 8, R: 3, S: 3,
		StrideX: 1, StrideY: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4, 5, 6}
	n, err := NewNest(p, []LevelConfig{
		{Name: "r", Kind: Temporal, Active: all},
		{Name: "q", Kind: Temporal, Copy: true, Active: all},
	})
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{loopnest.ConvW, loopnest.ConvN, loopnest.ConvK,
		loopnest.ConvH, loopnest.ConvC, loopnest.ConvS, loopnest.ConvR}
	v, err := n.ComputeVolumes([][]int{nil, perm})
	if err != nil {
		t.Fatal(err)
	}
	// Variable lookup helpers.
	l0, l1 := &n.Levels[0], &n.Levels[1]
	r := func(it int) expr.VarID { return l0.Trips[it] }
	q := func(it int) expr.VarID { return l1.Trips[it] }
	cN, cK, cC, cR, cS, cH, cW := loopnest.ConvN, loopnest.ConvK, loopnest.ConvC,
		loopnest.ConvR, loopnest.ConvS, loopnest.ConvH, loopnest.ConvW

	// Expected DV¹_In = q_w q_n q_k q_h q_c q_s ·
	//   r_n · r_c · (r_h + q_r·r_r − 1) · (2r_w + r_s − 2).
	wantIn := expr.ProductOf(
		expr.PolyFrom(expr.Mono(1, r(cN))),
		expr.PolyFrom(expr.Mono(1, r(cC))),
		expr.PolyFrom(expr.Mono(1, r(cH)), expr.Mono(1, q(cR), r(cR)), expr.Const(-1)),
		expr.PolyFrom(expr.Mono(2, r(cW)), expr.Mono(1, r(cS)), expr.Const(-2)),
		expr.PolyFrom(expr.Mono(1, q(cS))),
		expr.PolyFrom(expr.Mono(1, q(cC))),
		expr.PolyFrom(expr.Mono(1, q(cH))),
		expr.PolyFrom(expr.Mono(1, q(cK))),
		expr.PolyFrom(expr.Mono(1, q(cN))),
		expr.PolyFrom(expr.Mono(1, q(cW))),
	)
	if got, want := v.Traffic[0][0].Key(), wantIn.Key(); got != want {
		t.Fatalf("DV1_In =\n  %s\nwant\n  %s",
			v.Traffic[0][0].String(n.Vars), wantIn.String(n.Vars))
	}

	// Expected DV¹_Out = 2 q_w q_n q_k · (r_n r_k q_h r_h r_w).
	wantOut := expr.ProductOf(
		expr.PolyFrom(expr.Mono(1, r(cN))),
		expr.PolyFrom(expr.Mono(1, r(cK))),
		expr.PolyFrom(expr.Mono(1, q(cH), r(cH))),
		expr.PolyFrom(expr.Mono(1, r(cW))),
		expr.PolyFrom(expr.Mono(1, q(cK))),
		expr.PolyFrom(expr.Mono(1, q(cN))),
		expr.PolyFrom(expr.Mono(1, q(cW))),
		expr.PolyFrom(expr.Const(2)),
	)
	if got, want := v.Traffic[0][2].Key(), wantOut.Key(); got != want {
		t.Fatalf("DV1_Out =\n  %s\nwant\n  %s",
			v.Traffic[0][2].String(n.Vars), wantOut.String(n.Vars))
	}

	// Expected DV¹_Ker = q_w q_n q_k q_h q_c q_s · (r_k r_c q_r r_r r_s).
	wantKer := expr.ProductOf(
		expr.PolyFrom(expr.Mono(1, r(cK))),
		expr.PolyFrom(expr.Mono(1, r(cC))),
		expr.PolyFrom(expr.Mono(1, q(cR), r(cR))),
		expr.PolyFrom(expr.Mono(1, r(cS))),
		expr.PolyFrom(expr.Mono(1, q(cS))),
		expr.PolyFrom(expr.Mono(1, q(cC))),
		expr.PolyFrom(expr.Mono(1, q(cH))),
		expr.PolyFrom(expr.Mono(1, q(cK))),
		expr.PolyFrom(expr.Mono(1, q(cN))),
		expr.PolyFrom(expr.Mono(1, q(cW))),
	)
	if got, want := v.Traffic[0][1].Key(), wantKer.Key(); got != want {
		t.Fatalf("DV1_Ker =\n  %s\nwant\n  %s",
			v.Traffic[0][1].String(n.Vars), wantKer.String(n.Vars))
	}
}

func TestEnumerateClassesMatmul(t *testing.T) {
	n := matmulNest(t)
	classes, err := n.EnumerateClasses(StandardLevelL1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(classes) < 2 || len(classes) > 6 {
		t.Fatalf("matmul L1 classes = %d, want within [2, 6]", len(classes))
	}
	total := 0
	for _, c := range classes {
		total += c.Size
		if len(c.Perm) != 3 {
			t.Fatalf("class perm %v", c.Perm)
		}
	}
	if total != 6 {
		t.Fatalf("class sizes sum to %d, want 6", total)
	}
	// Classes must have distinct keys.
	seen := map[string]bool{}
	for _, c := range classes {
		if seen[c.Key] {
			t.Fatalf("duplicate class key %q", c.Key)
		}
		seen[c.Key] = true
	}
}

func TestEnumerateClassesConvSymmetry(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "sym", N: 1, K: 16, C: 16, H: 14, W: 14, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := StandardNest(p, StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	syms := SymmetricInvolutions(p)
	if len(syms) == 0 {
		t.Fatal("expected at least one involution for a square conv")
	}
	with, err := n.EnumerateClasses(StandardLevelSRAM, syms)
	if err != nil {
		t.Fatal(err)
	}
	without, err := n.EnumerateClasses(StandardLevelSRAM, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(with) >= len(without) {
		t.Fatalf("symmetry pruning had no effect: %d vs %d", len(with), len(without))
	}
	t.Logf("SRAM-level classes: %d without symmetry, %d with", len(without), len(with))
}

func TestSymmetricInvolutions(t *testing.T) {
	// Square stride-1 conv: joint (h,w)+(r,s) swap is a symmetry.
	p, _ := loopnest.Conv2D(loopnest.Conv2DConfig{
		N: 1, K: 8, C: 8, H: 14, W: 14, R: 3, S: 3, StrideX: 1, StrideY: 1,
	})
	syms := SymmetricInvolutions(p)
	foundJoint := false
	for _, inv := range syms {
		if len(inv) == 2 {
			foundJoint = true
		}
	}
	if !foundJoint {
		t.Fatalf("expected joint (h,w)(r,s) involution, got %v", syms)
	}
	// Different strides: no symmetry.
	p2, _ := loopnest.Conv2D(loopnest.Conv2DConfig{
		N: 1, K: 8, C: 8, H: 14, W: 14, R: 3, S: 3, StrideX: 2, StrideY: 1,
	})
	if got := SymmetricInvolutions(p2); len(got) != 0 {
		t.Fatalf("expected no involutions for asymmetric strides, got %v", got)
	}
	// Matmul: no involutions (tensors distinguish i and j).
	if got := SymmetricInvolutions(loopnest.MatMul(8, 8, 8)); len(got) != 0 {
		t.Fatalf("matmul involutions = %v, want none", got)
	}
}

func TestStandardNestDropsUnitAndUntiledIters(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "u", N: 1, K: 8, C: 8, H: 8, W: 8, R: 3, S: 3, StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := StandardNest(p, StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Batch n has extent 1: inactive at every level (only level-0
	// placeholder var pinned to 1).
	if got := len(n.DimTripVars(loopnest.ConvN)); got != 1 {
		t.Fatalf("batch trip vars = %d, want 1 (placeholder)", got)
	}
	// r, s pinned to full extent at level 0.
	foundPin := 0
	for _, pin := range n.Pins {
		if it := n.IterOfVar(pin.Var); (it == loopnest.ConvR || it == loopnest.ConvS) && pin.Value == 3 {
			foundPin++
		}
	}
	if foundPin != 2 {
		t.Fatalf("r/s extent pins = %d, want 2", foundPin)
	}
	// L1 active set excludes r, s, n.
	for _, it := range n.Levels[StandardLevelL1].Active {
		if it == loopnest.ConvR || it == loopnest.ConvS || it == loopnest.ConvN {
			t.Fatalf("L1 active contains %d", it)
		}
	}
}

func TestStandardNestRSAtLevel1(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "rs1", N: 1, K: 8, C: 8, H: 8, W: 8, R: 3, S: 3, StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := StandardNest(p, StandardOptions{RS: RSAtLevel1})
	if err != nil {
		t.Fatal(err)
	}
	active := n.Levels[StandardLevelL1].Active
	hasR := false
	for _, it := range active {
		if it == loopnest.ConvR {
			hasR = true
		}
	}
	if !hasR {
		t.Fatal("RSAtLevel1 should place r in L1 active set")
	}
	if n.Levels[StandardLevelL1].Fixed[loopnest.ConvR] != 3 {
		t.Fatal("r should be fixed to its extent at L1")
	}
}

// TestStandardNestIsFig1: the depth-2 nest is the paper's Fig. 1 nest
// written out level by level — register tile, SRAM→register copies, PE
// grid, DRAM→SRAM copies, r/s pinned at their placement — with the
// same levels, active sets, pins and variables, for both kernel
// placements.
func TestStandardNestIsFig1(t *testing.T) {
	conv, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "conv", N: 1, K: 8, C: 4, H: 6, W: 6, R: 3, S: 3, StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*loopnest.Problem{loopnest.MatMul(64, 64, 64), conv} {
		for _, rs := range []RSPlacement{RSAtRegister, RSAtLevel1} {
			var tiled, kernel []int
			pinned := map[int]int64{}
			for it, iter := range p.Iters {
				switch {
				case iter.Extent == 1:
				case iter.Name == "r" || iter.Name == "s":
					kernel = append(kernel, it)
					pinned[it] = iter.Extent
				default:
					tiled = append(tiled, it)
				}
			}
			ref := []LevelConfig{
				{Name: "reg", Kind: Temporal, Active: tiled},
				{Name: "q", Kind: Temporal, Copy: true, Active: tiled},
				{Name: "p", Kind: Spatial, Active: tiled},
				{Name: "t", Kind: Temporal, Copy: true, Active: tiled},
			}
			place := StandardLevelReg
			if rs == RSAtLevel1 {
				place = StandardLevelL1
			}
			ref[place].Active = append(slices.Clone(tiled), kernel...)
			ref[place].Fixed = pinned
			want, err := NewNest(p, ref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := StandardNest(p, StandardOptions{RS: rs})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Levels) != len(want.Levels) || !slices.Equal(got.Pins, want.Pins) || got.Vars.Len() != want.Vars.Len() {
				t.Fatalf("%s %v: %d levels, pins %v, %d variables; Fig. 1 has %d, %v, %d", p.Name, rs,
					len(got.Levels), got.Pins, got.Vars.Len(), len(want.Levels), want.Pins, want.Vars.Len())
			}
			for li := range want.Levels {
				g, w := &got.Levels[li], &want.Levels[li]
				if g.Name != w.Name || g.Kind != w.Kind || g.Copy != w.Copy || !slices.Equal(g.Active, w.Active) ||
					!maps.Equal(g.Fixed, w.Fixed) || !slices.Equal(g.Trips, w.Trips) {
					t.Fatalf("%s %v: level %d %+v, Fig. 1 %+v", p.Name, rs, li, *g, *w)
				}
			}
		}
	}
}

// TestThreeLevelNestStructure: a 3-buffer hierarchy with the PE grid
// above the second buffer builds a 5-level nest, reg, q, q1, p, t, with
// 3 copy levels and the spatial level between the second and third;
// BuildNest refuses a depth below 1 and a PE grid outside the copy
// levels.
func TestThreeLevelNestStructure(t *testing.T) {
	p := loopnest.MatMul(64, 64, 64)
	n, err := BuildNest(p, 3, 1, RSAtRegister)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, lvl := range n.Levels {
		names = append(names, lvl.Name)
	}
	if want := []string{"reg", "q", "q1", "p", "t"}; !slices.Equal(names, want) {
		t.Fatalf("levels %v, want %v", names, want)
	}
	cl := n.CopyLevels()
	if want := []int{1, 2, 4}; !slices.Equal(cl, want) {
		t.Fatalf("copy levels %v, want %v", cl, want)
	}
	if n.Levels[3].Kind != Spatial {
		t.Fatalf("level 3 (%s) is not the spatial level", n.Levels[3].Name)
	}
	for _, c := range [][2]int{{0, 0}, {2, 2}, {2, -1}} {
		if _, err := BuildNest(p, c[0], c[1], RSAtRegister); !errors.Is(err, ErrBadNest) {
			t.Errorf("BuildNest(%d copy levels, PE grid above %d): err = %v, want ErrBadNest", c[0], c[1], err)
		}
	}
}

func TestCheckTripsRejectsBadProducts(t *testing.T) {
	n := matmulNest(t)
	bad := [][]int64{
		{4, 4, 4},
		{2, 2, 4},
		{2, 2, 1},
		{4, 4, 2}, // k product = 32 ≠ 64
	}
	if err := n.CheckTrips(bad); err == nil {
		t.Fatal("expected product error")
	}
	if err := n.CheckTrips(bad[:2]); err == nil {
		t.Fatal("expected level-count error")
	}
}

func TestComputeVolumesValidatesPerms(t *testing.T) {
	n := matmulNest(t)
	if _, err := n.ComputeVolumes(StandardPerms([]int{itI, itJ}, []int{itI, itK, itJ})); err == nil {
		t.Fatal("expected short-perm error")
	}
	if _, err := n.ComputeVolumes(StandardPerms([]int{itI, itI, itJ}, []int{itI, itK, itJ})); err == nil {
		t.Fatal("expected duplicate-perm error")
	}
	if _, err := n.ComputeVolumes(nil); err == nil {
		t.Fatal("expected level-count error")
	}
}

func TestNewNestValidation(t *testing.T) {
	p := loopnest.MatMul(8, 8, 8)
	if _, err := NewNest(p, nil); err == nil {
		t.Fatal("expected too-few-levels error")
	}
	if _, err := NewNest(p, []LevelConfig{
		{Name: "a", Kind: Spatial, Active: []int{0}},
		{Name: "b", Kind: Temporal, Copy: true, Active: []int{0}},
	}); err == nil {
		t.Fatal("expected level-0-kind error")
	}
	if _, err := NewNest(p, []LevelConfig{
		{Name: "a", Kind: Temporal, Active: []int{0, 0}},
		{Name: "b", Kind: Temporal, Copy: true, Active: []int{0}},
	}); err == nil {
		t.Fatal("expected repeat-iterator error")
	}
	if _, err := NewNest(p, []LevelConfig{
		{Name: "a", Kind: Temporal, Active: []int{9}},
		{Name: "b", Kind: Temporal, Copy: true, Active: []int{0}},
	}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestSpatialTripVarsAndDimEqualities(t *testing.T) {
	n := matmulNest(t)
	sp := n.SpatialTripVars()
	if len(sp) != 3 {
		t.Fatalf("spatial trip vars = %d, want 3", len(sp))
	}
	eqs := n.DimEqualities()
	if len(eqs) != 3 {
		t.Fatalf("dim equalities = %d, want 3", len(eqs))
	}
	for _, eq := range eqs {
		if eq.Extent != 64 || len(eq.Vars) != 4 {
			t.Fatalf("equality %+v", eq)
		}
	}
}

func TestVolumesString(t *testing.T) {
	n := matmulNest(t)
	v := computeMatmulVolumes(t, n)
	s := v.String()
	if len(s) == 0 {
		t.Fatal("empty String()")
	}
}

// TestVolumesFolded: folding pinned trips preserves exact evaluation and
// removes the negative extent constants for stride-1 kernels.
func TestVolumesFolded(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "fold", N: 1, K: 16, C: 16, H: 14, W: 14, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n, err := StandardNest(p, StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	active := n.Levels[StandardLevelL1].Active
	v, err := n.ComputeVolumes(StandardPerms(active, n.Levels[StandardLevelSRAM].Active))
	if err != nil {
		t.Fatal(err)
	}
	f := v.Folded()
	trips := [][]int64{
		{1, 2, 2, 3, 3, 2, 2},
		{1, 2, 2, 1, 1, 1, 1},
		{1, 2, 2, 1, 1, 7, 7},
		{1, 2, 2, 1, 1, 1, 1},
	}
	if err := n.CheckTrips(trips); err != nil {
		t.Fatal(err)
	}
	x := n.Assignment(n.Vars.Len(), trips)
	for b := 0; b < 2; b++ {
		if got, want := f.EvalTraffic(b, x), v.EvalTraffic(b, x); got != want {
			t.Fatalf("folded traffic[%d] = %v, want %v", b, got, want)
		}
		if got, want := f.EvalFootprint(b, x), v.EvalFootprint(b, x); got != want {
			t.Fatalf("folded footprint[%d] = %v, want %v", b, got, want)
		}
	}
	// Stride-1 conv with pinned 3×3 kernel: the folded register footprint
	// relaxes exactly (no negative constants left to drop).
	exact := f.SumFootprint(0, false)
	relaxed := f.SumFootprint(0, true)
	if exact.Key() != relaxed.Key() {
		t.Fatalf("folded stride-1 footprint should be exact:\nexact   %s\nrelaxed %s",
			exact.String(n.Vars), relaxed.String(n.Vars))
	}
	// The unfolded version is not exact.
	if v.SumFootprint(0, false).Key() == v.SumFootprint(0, true).Key() {
		t.Fatal("unfolded footprint unexpectedly exact")
	}
}

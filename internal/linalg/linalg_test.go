package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// FromRows builds a matrix from row slices, which must all have the same
// length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// SolveSPD is SolveSPDTo into a fresh vector on a fresh workspace.
func SolveSPD(a *Dense, b []float64) ([]float64, error) {
	x := make([]float64, a.Rows)
	var ws Workspace
	if err := ws.SolveSPDTo(x, a, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveWithNullspace is SolveWithNullspaceInto returning copies that
// outlive the workspace.
func SolveWithNullspace(a *Dense, b []float64) (x0 []float64, z *Dense, err error) {
	var ws Workspace
	x0v, zv, err := ws.SolveWithNullspaceInto(a, b)
	if err != nil {
		return nil, nil, err
	}
	return append([]float64(nil), x0v...), zv.Clone(), nil
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	m.Add(1, 2, 1)
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Fatalf("At/Set/Add wrong: %+v", m)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases data")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestFromRowsPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMulVecAndTrans(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	x := []float64{1, -1}
	y := make([]float64, 3)
	a.MulVec(x, y)
	want := []float64{-1, -1, -1}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MulVec = %v, want %v", y, want)
		}
	}
	z := make([]float64, 2)
	a.MulTransVec([]float64{1, 1, 1}, z)
	if z[0] != 9 || z[1] != 12 {
		t.Fatalf("MulTransVec = %v", z)
	}
}

func TestCholeskyAndSolve(t *testing.T) {
	// SPD matrix.
	a := FromRows([][]float64{
		{4, 2, 0.6},
		{2, 5, 1.5},
		{0.6, 1.5, 3.8},
	})
	xTrue := []float64{1, -2, 3}
	b := make([]float64, 3)
	a.MulVec(xTrue, b)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if !almostEq(x[i], xTrue[i], 1e-10) {
			t.Fatalf("SolveSPD = %v, want %v", x, xTrue)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if err := Cholesky(a.Clone()); err == nil {
		t.Fatal("expected ErrSingular for indefinite matrix")
	}
	// SolveSPD regularizes, so it should still return something finite
	// for a PSD-but-singular matrix.
	s := FromRows([][]float64{{1, 1}, {1, 1}})
	x, err := SolveSPD(s, []float64{2, 2})
	if err != nil {
		t.Fatalf("SolveSPD on singular PSD failed: %v", err)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite solution %v", x)
		}
	}
}

func TestSolveWithNullspaceSquare(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	b := []float64{5, 10}
	x0, z, err := SolveWithNullspace(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if z.Cols != 0 {
		t.Fatalf("full-rank square system should have empty nullspace, got %d cols", z.Cols)
	}
	if !almostEq(x0[0], 1, 1e-10) || !almostEq(x0[1], 3, 1e-10) {
		t.Fatalf("x0 = %v, want [1 3]", x0)
	}
}

func TestSolveWithNullspaceUnderdetermined(t *testing.T) {
	// x + y + z = 6 — a plane; nullspace dim 2.
	a := FromRows([][]float64{{1, 1, 1}})
	b := []float64{6}
	x0, z, err := SolveWithNullspace(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if z.Cols != 2 {
		t.Fatalf("nullspace dim = %d, want 2", z.Cols)
	}
	// x0 solves the system.
	sum := x0[0] + x0[1] + x0[2]
	if !almostEq(sum, 6, 1e-10) {
		t.Fatalf("particular solution invalid: %v", x0)
	}
	// Each nullspace column maps to zero.
	for c := 0; c < z.Cols; c++ {
		s := z.At(0, c) + z.At(1, c) + z.At(2, c)
		if math.Abs(s) > 1e-10 {
			t.Fatalf("nullspace column %d not in kernel", c)
		}
	}
}

func TestSolveWithNullspaceRedundantAndInconsistent(t *testing.T) {
	a := FromRows([][]float64{{1, 1}, {2, 2}})
	if _, _, err := SolveWithNullspace(a, []float64{3, 6}); err != nil {
		t.Fatalf("redundant consistent system failed: %v", err)
	}
	if _, _, err := SolveWithNullspace(a, []float64{3, 7}); err != ErrInconsistent {
		t.Fatalf("expected ErrInconsistent, got %v", err)
	}
}

func TestVectorHelpers(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
	y := []float64{1, 1, 1}
	AXPY(2, a, y)
	if y[0] != 3 || y[2] != 7 {
		t.Fatalf("AXPY = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 {
		t.Fatalf("Scale = %v", y)
	}
}

// Property: for random SPD systems A = M·Mᵀ + I, SolveSPDTo recovers a
// solution with small residual ‖A·x − b‖, leaves a and b unmodified,
// reads only a's lower triangle (the barrier solver never assembles the
// upper one), and may write the solution over b. One workspace serves
// every system, so
// stale factor contents from a previous, differently sized solve must
// never leak into the next one.
func TestQuickSolveSPDResidual(t *testing.T) {
	var ws Workspace
	residualOK := func(a *Dense, x, b []float64) bool {
		r := make([]float64, len(b))
		a.MulVec(x, r)
		for i := range r {
			if !almostEq(r[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a, b := randSPD(rng, n)
		aOrig, bOrig := a.Clone(), append([]float64(nil), b...)
		x := make([]float64, n)
		if err := ws.SolveSPDTo(x, a, b); err != nil || !residualOK(a, x, b) {
			return false
		}
		for i := range a.Data {
			if a.Data[i] != aOrig.Data[i] {
				return false
			}
		}
		for i := range b {
			if b[i] != bOrig[i] {
				return false
			}
		}
		lower := a.Clone()
		for r := 0; r < n; r++ {
			for c := r + 1; c < n; c++ {
				lower.Set(r, c, math.NaN())
			}
		}
		xl := make([]float64, n)
		if err := ws.SolveSPDTo(xl, lower, b); err != nil {
			return false
		}
		for i := range x {
			if math.Float64bits(xl[i]) != math.Float64bits(x[i]) {
				return false
			}
		}
		if err := ws.SolveSPDTo(b, a, b); err != nil {
			return false
		}
		return residualOK(a, b, bOrig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: x0 + Z·z satisfies A·x = b for random z.
func TestQuickNullspaceParameterization(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(3)
		n := m + 1 + rng.Intn(3)
		a := NewDense(m, n)
		for i := range a.Data {
			a.Data[i] = float64(rng.Intn(7) - 3)
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		b := make([]float64, m)
		a.MulVec(xs, b)
		x0, z, err := SolveWithNullspace(a, b)
		if err != nil {
			return false
		}
		zc := make([]float64, z.Cols)
		for i := range zc {
			zc[i] = rng.NormFloat64()
		}
		x := append([]float64(nil), x0...)
		tmp := make([]float64, n)
		z.MulVec(zc, tmp)
		AXPY(1, tmp, x)
		chk := make([]float64, m)
		a.MulVec(x, chk)
		for i := range chk {
			if !almostEq(chk[i], b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

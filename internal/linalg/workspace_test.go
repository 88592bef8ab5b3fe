package linalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randSPD builds A = M·Mᵀ + I for a well-conditioned SPD system and a
// matching right-hand side.
func randSPD(rng *rand.Rand, n int) (*Dense, []float64) {
	m := NewDense(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += m.At(i, k) * m.At(j, k)
			}
			a.Set(i, j, s)
		}
		a.Add(i, i, 1)
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return a, b
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic on dimension mismatch", name)
		}
	}()
	f()
}

// SolveSPD runs on a fresh workspace, so comparing it bit for bit with a
// long-lived one checks that nothing from an earlier solve leaks into the
// next.
func TestSolveSPDToMatchesSolveSPD(t *testing.T) {
	var ws Workspace
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		a, b := randSPD(rng, n)
		want, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		aOrig, bOrig := a.Clone(), append([]float64(nil), b...)

		// The same workspace is reused across every quick-check system,
		// so stale factor contents from a previous (differently sized)
		// solve must never leak into the next one.
		dst := make([]float64, n)
		if err := ws.SolveSPDTo(dst, a, b); err != nil {
			return false
		}
		for i := range want {
			if dst[i] != want[i] {
				return false
			}
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

		// dst may alias b.
		if err := ws.SolveSPDTo(b, a, b); err != nil {
			return false
		}
		for i := range want {
			if b[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveWithNullspaceIntoMatchesAllocating(t *testing.T) {
	var ws Workspace
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(3)
		n := m + rng.Intn(4)
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
		aOrig, bOrig := a.Clone(), append([]float64(nil), b...)

		wantX, wantZ, wantErr := SolveWithNullspace(a, b)
		gotX, gotZ, gotErr := ws.SolveWithNullspaceInto(a, b)
		if (wantErr == nil) != (gotErr == nil) {
			return false
		}
		if wantErr != nil {
			return true
		}
		for i := range wantX {
			if gotX[i] != wantX[i] {
				return false
			}
		}
		if gotZ.Rows != wantZ.Rows || gotZ.Cols != wantZ.Cols {
			return false
		}
		for i := range wantZ.Data {
			if gotZ.Data[i] != wantZ.Data[i] {
				return false
			}
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveWithNullspaceIntoInconsistent(t *testing.T) {
	var ws Workspace
	a := FromRows([][]float64{{1, 1}, {1, 1}})
	if _, _, err := ws.SolveWithNullspaceInto(a, []float64{1, 2}); err != ErrInconsistent {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

// Workspace-owned results are views: the next call overwrites them.
func TestSolveWithNullspaceIntoResultsAreViews(t *testing.T) {
	var ws Workspace
	a := FromRows([][]float64{{1, 0, 0}})
	x1, z1, err := ws.SolveWithNullspaceInto(a, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	if x1[0] != 2 || z1.Cols != 2 {
		t.Fatalf("unexpected first solution x=%v z=%dx%d", x1, z1.Rows, z1.Cols)
	}
	b := FromRows([][]float64{{1, 0, 0}})
	x2, _, err := ws.SolveWithNullspaceInto(b, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if &x1[0] != &x2[0] {
		t.Fatal("expected x0 buffer reuse across calls")
	}
	if x1[0] != 5 {
		t.Fatal("expected the first result to be overwritten (it is a view)")
	}
}

func TestInPlaceDimensionMismatchPanics(t *testing.T) {
	var ws Workspace
	a := NewDense(3, 3)
	for i := 0; i < 3; i++ {
		a.Set(i, i, 1)
	}
	mustPanic(t, "SolveSPDTo dst", func() { _ = ws.SolveSPDTo(make([]float64, 2), a, make([]float64, 3)) })
	mustPanic(t, "SolveSPDTo b", func() { _ = ws.SolveSPDTo(make([]float64, 3), a, make([]float64, 2)) })
}

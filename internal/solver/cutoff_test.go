package solver

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/linalg"
)

// cutoffOffsets place a cutoff relative to a problem's full-solve
// optimum f, in log space: below it, where a cut is allowed, and at or
// above it, where a cut would claim an optimum above a value the full
// solve reached.
var cutoffOffsets = []float64{-1, -1e-1, -1e-3, -1e-5, -1e-7, 0, 1e-9, 1e-7, 1e-5, 1e-3}

// checkCutoffs solves p once in full and once per offset d with the
// cutoff exp(f + d), where f is the full solve's objective. A solve
// that ends CutOff must have f > f + d, so d < 0; any other solve must
// be the full solve bit for bit, since the cutoff check only reads the
// iterate. It returns how many solves were cut off.
func checkCutoffs(t *testing.T, name string, p *Problem, opts Options) int {
	t.Helper()
	full, err := Solve(p, nil, opts)
	if err != nil || full.Status != Optimal {
		t.Fatalf("%s: full solve %v, %v", name, full.Status, err)
	}
	cuts := 0
	for _, d := range cutoffOffsets {
		o := opts
		o.Cutoff = math.Exp(full.Objective + d)
		res, err := Solve(p, nil, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Status == CutOff {
			cuts++
			if d >= 0 {
				t.Errorf("%s: cut off at log cutoff f%+g, but the full solve reached f = %v", name, d, full.Objective)
			}
			if res.Newton >= full.Newton {
				t.Errorf("%s: cut off after %d Newton iterations, the full solve took %d", name, res.Newton, full.Newton)
			}
			continue
		}
		if res.Status != full.Status || res.Newton != full.Newton || res.Objective != full.Objective ||
			!slices.Equal(res.Y, full.Y) {
			t.Errorf("%s: uncut solve at f%+g differs from the full solve: %v after %d Newton, want %v after %d",
				name, d, res.Status, res.Newton, full.Status, full.Newton)
		}
	}
	return cuts
}

// TestCutoffSound checks the cutoff on seeded random GPs, with and
// without equality constraints, and with and without an objective lower
// bound to start from: no solve is cut off at a cutoff its full solve
// reaches, and every other solve is the full solve.
func TestCutoffSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cuts := 0
	for i := 0; i < 120; i++ {
		n := 2 + rng.Intn(5)
		p := randGP(rng, n, 2+rng.Intn(5), 1+rng.Intn(n))
		if i%2 == 1 {
			// Equalities through the origin keep randGP's strictly
			// feasible start, and make the elimination basis Z ≠ I.
			rows := 1 + rng.Intn(n-1)
			p.Aeq = linalg.NewDense(rows, n)
			for r := 0; r < rows; r++ {
				for c := 0; c < n; c++ {
					p.Aeq.Set(r, c, float64(rng.Intn(5)-2))
				}
			}
			p.Beq = make([]float64, rows)
		}
		opts := Options{}
		if i%3 == 2 {
			// A valid lower bound, a little under the optimum.
			ref, err := Solve(p, nil, Options{})
			if err != nil || ref.Status != Optimal {
				continue
			}
			opts.LowerBound = math.Exp(ref.Objective - 0.5)
		}
		full, err := Solve(p, nil, opts)
		if err != nil || full.Status != Optimal {
			continue // a degenerate draw (say, an inconsistent equality): nothing to cut
		}
		cuts += checkCutoffs(t, "randGP", p, opts)
	}
	if cuts == 0 {
		t.Fatal("no solve was cut off: the test checks nothing")
	}
}

// TestCutoffNone checks the values of Options.Cutoff that mean none:
// zero, +Inf and NaN leave the solve as it is.
func TestCutoffNone(t *testing.T) {
	p := randGP(rand.New(rand.NewSource(1)), 4, 4, 3)
	full, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{0, math.Inf(1), math.NaN(), -1} {
		res, err := Solve(p, nil, Options{Cutoff: c})
		if err != nil || res.Status != full.Status || res.Newton != full.Newton || !slices.Equal(res.Y, full.Y) {
			t.Errorf("cutoff %v: %v after %d Newton (%v), want the full solve's %v after %d",
				c, res.Status, res.Newton, err, full.Status, full.Newton)
		}
	}
}

// TestDualBoundOffCenter checks dualBound where no centering has
// converged: at random strictly feasible points of seeded random GPs,
// for barrier parameters from 1 to 1e8, the bound from the barrier
// gradient there must not exceed the full-solve optimum. Off the
// central path f0 − m/t alone is no bound; the box term makes it one.
func TestDualBoundOffCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for i := 0; i < 60; i++ {
		n := 2 + rng.Intn(5)
		p := randGP(rng, n, 2+rng.Intn(5), 1+rng.Intn(n))
		if i%2 == 1 {
			rows := 1 + rng.Intn(n-1)
			p.Aeq = linalg.NewDense(rows, n)
			for r := 0; r < rows; r++ {
				for c := 0; c < n; c++ {
					p.Aeq.Set(r, c, float64(rng.Intn(5)-2))
				}
			}
			p.Beq = make([]float64, rows)
		}
		full, err := Solve(p, nil, Options{})
		if err != nil || full.Status != Optimal {
			continue
		}
		ws := NewWorkspace()
		yPart, zb, err := ws.lower(p)
		if err != nil {
			t.Fatal(err)
		}
		fs := &ws.fns
		nz := zb.Cols
		for trial := 0; trial < 10; trial++ {
			// A random direction from the origin, which randGP keeps
			// strictly feasible, halved until strictly feasible.
			z := make([]float64, nz)
			for j := range z {
				z[j] = 4 * rng.NormFloat64()
			}
			for fs.maxIneq(z) >= 0 {
				linalg.Scale(0.5, z)
			}
			for _, tb := range []float64{1, 1e2, 1e4, 1e6, 1e8} {
				// The barrier gradient t·∇f0 − Σ ∇fi/fi at z.
				_, g, _ := sparseEval(fs, 0, z)
				linalg.Scale(tb, g)
				for f := 1; f < fs.count(); f++ {
					fi, gi, _ := sparseEval(fs, f, z)
					linalg.AXPY(-1/fi, gi, g)
				}
				ws.g = g
				if b := ws.dualBound(fs, z, tb, yPart, zb); b > full.Objective {
					t.Errorf("GP %d: bound %v at t=%g off center exceeds the optimum %v", i, b, tb, full.Objective)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no point checked")
	}
}

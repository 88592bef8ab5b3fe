package solver

import (
	"math"
	"math/rand"
	"testing"
)

// randGP draws a feasible GP in log space over n variables: a k-term
// objective with integer exponents of both signs, and c two-term
// constraints with nonnegative exponents whose offsets keep the origin
// strictly feasible.
func randGP(rng *rand.Rand, n, k, c int) *Problem {
	p := &Problem{N: n}
	for j := 0; j < k; j++ {
		row := make([]float64, n)
		for i := range row {
			row[i] = float64(rng.Intn(5) - 2)
		}
		p.Obj.A = append(p.Obj.A, row)
		p.Obj.B = append(p.Obj.B, rng.NormFloat64())
	}
	for j := 0; j < c; j++ {
		var f LSE
		for term := 0; term < 2; term++ {
			row := make([]float64, n)
			for i := range row {
				row[i] = float64(rng.Intn(3))
			}
			f.A = append(f.A, row)
			f.B = append(f.B, -5+rng.NormFloat64())
		}
		p.Ineq = append(p.Ineq, f)
	}
	return p
}

// stressCase is one problem of the stress corpus, with the hint and
// objective lower bound of its solve. A positive gap instead gives the
// solve the bound exp(f − gap), where f is the objective of its
// no-bound twin.
type stressCase struct {
	name  string
	p     *Problem
	hint  []float64
	bound float64
	gap   float64
}

// unit returns the i-th unit row of length n, scaled by s.
func unit(n, i int, s float64) []float64 {
	row := make([]float64, n)
	row[i] = s
	return row
}

// stressCorpus builds the seeded corpus: optima near the ±boxBound
// walls, feasible sets a hair wide and rank-deficient and redundant
// equality systems, each solved with a valid bound, and every kind of
// objective lower bound the barrier's start has to tolerate. Each case
// has a no-bound twin, the reference solve that starts at t0 = 1.
func stressCorpus(t *testing.T) []stressCase {
	t.Helper()
	var cs []stressCase
	rng := rand.New(rand.NewSource(7))

	// Extreme variable ranges: each coordinate is pushed against a wall
	// between 55 and 59.9 in magnitude, with the box at 60 beside it.
	for s := 0; s < 3; s++ {
		n := 2 + s
		p := &Problem{N: n}
		for i := 0; i < n; i++ {
			sign := float64(1 - 2*rng.Intn(2))
			wall := 55 + 4.9*rng.Float64()
			// Minimize toward the wall: the term exp(−sign·y_i) falls
			// as sign·y_i grows, which sign·y_i ≤ wall stops.
			p.Obj.A = append(p.Obj.A, unit(n, i, -sign))
			p.Obj.B = append(p.Obj.B, rng.NormFloat64())
			p.Ineq = append(p.Ineq, Linear(unit(n, i, sign), -wall))
		}
		cs = append(cs, stressCase{name: "near-box", p: p, gap: 0.1})
	}

	// Near-infeasible capacities: x1·x2 ≤ cap with x1 ≥ a and x2 ≥ b,
	// where a·b is cap less a relative slack of 1e-9 (in log space,
	// y1 + y2 ≤ log cap and y1 + y2 ≥ log cap − 1e-9).
	for s := 0; s < 3; s++ {
		la, lb := 3*rng.NormFloat64(), 3*rng.NormFloat64()
		lcap := la + lb + 1e-9
		p := &Problem{
			N:   2,
			Obj: LSE{A: [][]float64{{1, 0}, {0, 1}, {-1, -1}}, B: []float64{0, 0, rng.NormFloat64()}},
			Ineq: []LSE{
				Linear([]float64{1, 1}, -lcap),
				Linear([]float64{-1, 0}, la),
				Linear([]float64{0, -1}, lb),
			},
		}
		cs = append(cs, stressCase{name: "near-infeasible", p: p, gap: 0.1})
	}

	// Rank-deficient and redundant equality systems: a consistent
	// system with a repeated row, a multiple of another row and a sum of
	// two rows, over a random GP.
	for s := 0; s < 3; s++ {
		p := randGP(rng, 4, 5, 3)
		r1 := []float64{1, 1, 0, 0}
		r2 := []float64{0, 1, -1, 0}
		b1, b2 := 0.3*rng.NormFloat64(), 0.3*rng.NormFloat64()
		rows := [][]float64{r1, r2, r1, {2, 2, 0, 0}, {1, 2, -1, 0}}
		p.Aeq = fromRows(rows)
		p.Beq = []float64{b1, b2, b1, 2 * b1, b1 + b2}
		cs = append(cs, stressCase{name: "redundant-equalities", p: p, gap: 0.1})
	}

	// The barrier's start: objective lower bounds that carry no
	// estimate (zero, negative, NaN, +Inf, far below the optimum, above
	// the objective at the start) and bounds equal to the optimum, from
	// the origin and from a hint at the optimum.
	for s := 0; s < 3; s++ {
		p := randGP(rng, 4, 6, 4)
		ref, err := Solve(p, nil, Options{})
		if err != nil || ref.Status != Optimal {
			t.Fatalf("bound case %d: reference %v %v", s, ref.Status, err)
		}
		atOrigin := p.Obj.Value(make([]float64, p.N))
		for _, c := range []struct {
			name  string
			bound float64
			hint  []float64
		}{
			{"bound-zero", 0, nil},
			{"bound-negative", -1, nil},
			{"bound-nan", math.NaN(), nil},
			{"bound-inf", math.Inf(1), nil},
			{"bound-tiny", 1e-300, nil},
			{"bound-above-start", math.Exp(atOrigin + 1), nil},
			{"bound-optimum", math.Exp(ref.Objective), nil},
			{"bound-optimum-warm", math.Exp(ref.Objective), ref.Y},
			{"bound-valid", math.Exp(ref.Objective - 0.5), nil},
		} {
			cs = append(cs, stressCase{name: c.name, p: p, hint: c.hint, bound: c.bound})
		}
	}
	return cs
}

// TestSolveStressCorpus runs the stress corpus. Every case must end
// Optimal with a finite objective within Tol of its no-bound twin, and
// take fewer Newton iterations than one centering's budget: no
// centering stalls, whatever the bound. Loose bounds (none, invalid, or
// certifying a gap wider than m) must start at t0 = 1 and repeat the
// twin's iterates exactly.
func TestSolveStressCorpus(t *testing.T) {
	for _, c := range stressCorpus(t) {
		ref, err := Solve(c.p, c.hint, Options{})
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		bound := c.bound
		if c.gap > 0 {
			bound = math.Exp(ref.Objective - c.gap)
		}
		res, err := Solve(c.p, c.hint, Options{LowerBound: bound})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		t.Logf("%s: %v in %d Newton iterations (twin %d), objective %v", c.name, res.Status, res.Newton, ref.Newton, res.Objective)
		if res.Status != Optimal || ref.Status != Optimal {
			t.Errorf("%s: status %v, no-bound twin %v", c.name, res.Status, ref.Status)
			continue
		}
		if math.IsNaN(res.Objective) || math.IsInf(res.Objective, 0) {
			t.Errorf("%s: objective %v", c.name, res.Objective)
			continue
		}
		if d := math.Abs(res.Objective - ref.Objective); d > defaultTol {
			t.Errorf("%s: objective %v, no-bound twin %v (off by %g)", c.name, res.Objective, ref.Objective, d)
		}
		if res.Newton >= maxNewton {
			t.Errorf("%s: %d Newton iterations, one centering's budget is %d", c.name, res.Newton, maxNewton)
		}
		switch c.name {
		case "bound-zero", "bound-negative", "bound-nan", "bound-inf", "bound-tiny", "bound-above-start":
			if res.Newton != ref.Newton || math.Float64bits(res.Objective) != math.Float64bits(ref.Objective) {
				t.Errorf("%s: %d Newton iterations to %v, want the t0 = 1 solve's %d to %v",
					c.name, res.Newton, res.Objective, ref.Newton, ref.Objective)
			}
		}
	}
}

// TestStartT pins the barrier's start for each kind of bound.
func TestStartT(t *testing.T) {
	const m, f0 = 40.0, 0.0
	opts := func(lb float64) Options { return Options{Tol: 1e-8, LowerBound: lb} }
	for _, c := range []struct {
		name string
		lb   float64
		want float64
	}{
		{"none", 0, 1},
		{"negative", -2, 1},
		{"nan", math.NaN(), 1},
		{"inf", math.Inf(1), 1},
		{"above f0", math.Exp(f0 + 1), 1},
		{"gap wider than m", math.Exp(f0 - 80), 1},
		{"gap of 4", math.Exp(f0 - 4), 10},
		{"gap of zero", math.Exp(f0), m / (math.Sqrt(mu) * 1e-8)},
		{"gap below Tol", math.Exp(f0 - 1e-12), m / (math.Sqrt(mu) * 1e-8)},
	} {
		got := startT(m, f0, opts(c.lb))
		if math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("%s: t0 = %v, want %v", c.name, got, c.want)
		}
	}
}

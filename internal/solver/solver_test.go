package solver

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/linalg"
)

// The dense evaluation below is the reference the sparse Newton-loop
// kernels (sparseLSEs) must reproduce bit for bit.

// Terms reports the number of exponential terms K.
func (f *LSE) Terms() int { return len(f.B) }

// Eval returns f(y) and, when g or h are non-nil, fills them with the
// gradient and Hessian. g must have length dim(y); h must be dim×dim.
// g and h are overwritten, not accumulated.
func (f *LSE) Eval(y []float64, g []float64, h *linalg.Dense) float64 {
	n := len(y)
	k := len(f.B)
	if k == 1 {
		// Affine fast path: gradient is the single row (written with the
		// same 0 + 1·a_j operations as the general path, so signed zeros
		// match bit for bit) and the Hessian p a aᵀ − ggᵀ is exactly zero.
		val := linalg.Dot(f.A[0], y) + f.B[0] + 0
		if g != nil {
			for j := 0; j < n; j++ {
				g[j] = 0
			}
			linalg.AXPY(1, f.A[0], g)
		}
		if h != nil {
			h.Zero()
		}
		return val
	}
	u, p := make([]float64, k), make([]float64, k)
	maxU := math.Inf(-1)
	for i := range f.B {
		u[i] = linalg.Dot(f.A[i], y) + f.B[i]
		if u[i] > maxU {
			maxU = u[i]
		}
	}
	z := 0.0
	for i := range u {
		p[i] = math.Exp(u[i] - maxU)
		z += p[i]
	}
	val := maxU + math.Log(z)
	if g == nil && h == nil {
		return val
	}
	for i := range p {
		p[i] /= z
	}
	grad := g
	if grad == nil {
		grad = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		grad[j] = 0
	}
	for i := range p {
		if p[i] == 0 {
			continue
		}
		linalg.AXPY(p[i], f.A[i], grad)
	}
	if h != nil {
		h.Zero()
		// H = Σ p_i a_i a_iᵀ − grad gradᵀ
		for i := range p {
			if p[i] == 0 {
				continue
			}
			ai := f.A[i]
			for r := 0; r < n; r++ {
				pr := p[i] * ai[r]
				if pr == 0 {
					continue
				}
				for c := 0; c < n; c++ {
					h.Add(r, c, pr*ai[c])
				}
			}
		}
		for r := 0; r < n; r++ {
			gr := grad[r]
			for c := 0; c < n; c++ {
				h.Add(r, c, -gr*grad[c])
			}
		}
	}
	return val
}

// Compose returns g(z) = f(y0 + Z·z): an LSE over the reduced variable z.
func (f *LSE) Compose(y0 []float64, z *linalg.Dense) LSE {
	k := len(f.B)
	out := LSE{A: make([][]float64, k), B: make([]float64, k)}
	for i := 0; i < k; i++ {
		row := make([]float64, z.Cols)
		z.MulTransVec(f.A[i], row)
		out.A[i] = row
		out.B[i] = f.B[i] + linalg.Dot(f.A[i], y0)
	}
	return out
}

// ExtendDim returns a copy of f over a space with extra appended
// coordinates, with coefficient coefLast on the final coordinate of the
// new space for every term: f(y) − s = log Σ exp(a·y + b − s) for the
// phase-I slack s.
func (f *LSE) ExtendDim(newDim int, coefLast float64) LSE {
	k := len(f.B)
	out := LSE{A: make([][]float64, k), B: append([]float64(nil), f.B...)}
	for i := 0; i < k; i++ {
		row := make([]float64, newDim)
		copy(row, f.A[i])
		row[newDim-1] = coefLast
		out.A[i] = row
	}
	return out
}

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *linalg.Dense {
	m := linalg.NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// sparseOf returns fs in sparse form over dim variables.
func sparseOf(dim int, fs ...LSE) *sparseLSEs {
	s := new(sparseLSEs)
	s.reset(dim)
	for _, f := range fs {
		for k, a := range f.A {
			for c, v := range a {
				if v != 0 {
					s.add(c, v)
				}
			}
			s.endTerm(f.B[k])
		}
		s.endFn()
	}
	return s
}

// sparseEval runs the sparse kernel on function f of s into zeroed
// buffers, as the Newton loop does for the objective.
func sparseEval(s *sparseLSEs, f int, y []float64) (float64, []float64, *linalg.Dense) {
	g := make([]float64, len(y))
	h := linalg.NewDense(len(y), len(y))
	return s.eval(f, y, g, h), g, h
}

func fdCheckGrad(t *testing.T, f *LSE, y []float64) {
	t.Helper()
	n := len(y)
	_, g, _ := sparseEval(sparseOf(n, *f), 0, y)
	const h = 1e-6
	for i := 0; i < n; i++ {
		yp := append([]float64(nil), y...)
		ym := append([]float64(nil), y...)
		yp[i] += h
		ym[i] -= h
		fd := (f.Value(yp) - f.Value(ym)) / (2 * h)
		if math.Abs(fd-g[i]) > 1e-5*(1+math.Abs(fd)) {
			t.Fatalf("grad[%d] = %v, finite-diff %v", i, g[i], fd)
		}
	}
}

// fdCheckHess checks the lower triangle, the only part the kernel
// writes, against central differences of the gradient.
func fdCheckHess(t *testing.T, f *LSE, y []float64) {
	t.Helper()
	n := len(y)
	s := sparseOf(n, *f)
	_, _, h := sparseEval(s, 0, y)
	const eps = 1e-5
	for i := 0; i < n; i++ {
		yp := append([]float64(nil), y...)
		ym := append([]float64(nil), y...)
		yp[i] += eps
		ym[i] -= eps
		_, gp, _ := sparseEval(s, 0, yp)
		_, gm, _ := sparseEval(s, 0, ym)
		for j := 0; j <= i; j++ {
			fd := (gp[j] - gm[j]) / (2 * eps)
			if math.Abs(fd-h.At(i, j)) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("hess[%d,%d] = %v, finite-diff %v", i, j, h.At(i, j), fd)
			}
		}
	}
}

func TestLSEDerivatives(t *testing.T) {
	f := LSE{
		A: [][]float64{{1, 2}, {-1, 0.5}, {0, -2}},
		B: []float64{0.1, -0.3, 0.7},
	}
	for _, y := range [][]float64{{0, 0}, {1, -1}, {-2, 3}, {0.5, 0.5}} {
		fdCheckGrad(t, &f, y)
		fdCheckHess(t, &f, y)
	}
}

// randLSE draws an LSE over n variables with k terms. Rows mix exact
// zeros, negative and integer coefficients; with underflow, the last
// term's softmax weight exp(u − maxU) underflows to exactly 0.
func randLSE(rng *rand.Rand, n, k int, underflow bool) LSE {
	f := LSE{A: make([][]float64, k), B: make([]float64, k)}
	for i := range f.A {
		f.A[i] = make([]float64, n)
		for j := range f.A[i] {
			switch rng.Intn(3) {
			case 1:
				f.A[i][j] = rng.NormFloat64()
			case 2:
				f.A[i][j] = float64(rng.Intn(5) - 2)
			}
		}
		f.B[i] = rng.NormFloat64()
	}
	if underflow {
		f.B[k-1] = -2000
	}
	return f
}

// sameBits reports whether the sparse kernel's value, gradient and
// Hessian lower triangle equal the dense oracle's bit for bit.
func sameBits(t *testing.T, what string, s *sparseLSEs, fn int, f *LSE, y []float64) bool {
	t.Helper()
	n := len(y)
	if a, b := s.value(fn, y), f.Value(y); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("%s: value %v, dense %v", what, a, b)
		return false
	}
	val, g, h := sparseEval(s, fn, y)
	// The Newton loop reuses its scratch: a second evaluation over the
	// first one's output must overwrite it, not accumulate.
	s.eval(fn, y, g, h)
	gd, hd := make([]float64, n), linalg.NewDense(n, n)
	vd := f.Eval(y, gd, hd)
	if math.Float64bits(val) != math.Float64bits(vd) {
		t.Errorf("%s: eval value %v, dense %v", what, val, vd)
		return false
	}
	for j := range g {
		if math.Float64bits(g[j]) != math.Float64bits(gd[j]) {
			t.Errorf("%s: grad[%d] %v, dense %v", what, j, g[j], gd[j])
			return false
		}
	}
	for r := 0; r < n; r++ {
		for c := 0; c <= r; c++ {
			if math.Float64bits(h.At(r, c)) != math.Float64bits(hd.At(r, c)) {
				t.Errorf("%s: hess[%d,%d] %v, dense %v", what, r, c, h.At(r, c), hd.At(r, c))
				return false
			}
		}
	}
	return true
}

// TestSparseKernelsMatchDenseBits checks that the Newton loop's sparse
// kernels reproduce the dense evaluation bit for bit on random LSEs,
// built directly, composed with an affine map, and extended by the
// phase-I slack.
func TestSparseKernelsMatchDenseBits(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		k := 1 + rng.Intn(4)
		f := randLSE(rng, n, k, k > 1 && rng.Intn(3) == 0)
		y := make([]float64, n)
		for j := range y {
			if rng.Intn(4) > 0 {
				y[j] = 3 * rng.NormFloat64()
			}
		}
		// f is the middle of three functions, so indexing is exercised.
		other := randLSE(rng, n, 2, false)
		s := sparseOf(n, other, f, other)
		if !sameBits(t, "direct", s, 1, &f, y) {
			return false
		}

		// Composition with y = y0 + Z·z, from a function over N ≥ n
		// variables, against the dense Compose.
		bigN := n + rng.Intn(4)
		big := randLSE(rng, bigN, k, false)
		y0 := make([]float64, bigN)
		for j := range y0 {
			y0[j] = rng.NormFloat64()
		}
		zb := linalg.NewDense(bigN, n)
		for j := range zb.Data {
			if rng.Intn(2) == 0 {
				zb.Data[j] = float64(rng.Intn(5) - 2)
			}
		}
		var comp sparseLSEs
		comp.reset(n)
		comp.compose(&big, y0, zb, make([]float64, n))
		dense := big.Compose(y0, zb)
		if !sameBits(t, "composed", &comp, 0, &dense, y) {
			return false
		}

		// Phase-I extension f(z) − s against the dense ExtendDim.
		var ext sparseLSEs
		ext.reset(n + 1)
		ext.appendFn(&comp, 0, n)
		extDense := dense.ExtendDim(n+1, -1)
		return sameBits(t, "extended", &ext, 0, &extDense, append(y, rng.NormFloat64()))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLSEValueStability(t *testing.T) {
	// Large offsets must not overflow.
	f := LSE{A: [][]float64{{1}, {1}}, B: []float64{1000, 1000}}
	got := f.Value([]float64{0})
	want := 1000 + math.Log(2)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("Value = %v, want %v", got, want)
	}
}

func TestLinear(t *testing.T) {
	f := Linear([]float64{2, -1}, 3)
	if got := f.Value([]float64{1, 4}); got != 2-4+3 {
		t.Fatalf("linear value = %v, want 1", got)
	}
	if f.Terms() != 1 {
		t.Fatal("linear should be single-term")
	}
}

func TestCompose(t *testing.T) {
	f := LSE{A: [][]float64{{1, 1}, {2, -1}}, B: []float64{0, 1}}
	y0 := []float64{0.5, -0.5}
	z := fromRows([][]float64{{1}, {2}})
	g := f.Compose(y0, z)
	for _, zv := range []float64{-1, 0, 0.7} {
		y := []float64{y0[0] + zv, y0[1] + 2*zv}
		if a, b := g.Value([]float64{zv}), f.Value(y); math.Abs(a-b) > 1e-12 {
			t.Fatalf("compose mismatch at z=%v: %v vs %v", zv, a, b)
		}
	}
}

func TestExtendDim(t *testing.T) {
	f := LSE{A: [][]float64{{1, 2}}, B: []float64{0.5}}
	g := f.ExtendDim(3, -1)
	y := []float64{1, 2}
	s := 0.75
	if a, b := g.Value([]float64{1, 2, s}), f.Value(y)-s; math.Abs(a-b) > 1e-12 {
		t.Fatalf("ExtendDim mismatch: %v vs %v", a, b)
	}
}

// solveGP2 is the classic tiny GP: minimize x + y subject to x·y ≥ 1,
// whose optimum is x = y = 1 (objective 2). In log space: minimize
// log(e^y1 + e^y2) subject to −y1 − y2 ≤ 0.
func TestSolveTinyGP(t *testing.T) {
	p := &Problem{
		N:    2,
		Obj:  LSE{A: [][]float64{{1, 0}, {0, 1}}, B: []float64{0, 0}},
		Ineq: []LSE{Linear([]float64{-1, -1}, 0)},
	}
	res, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-math.Log(2)) > 1e-5 {
		t.Fatalf("objective = %v, want log 2", res.Objective)
	}
	for i, v := range res.Y {
		if math.Abs(v) > 1e-4 {
			t.Fatalf("y[%d] = %v, want 0", i, v)
		}
	}
}

func TestSolveWithEquality(t *testing.T) {
	// minimize x + y s.t. x·y = 6 → x = y = √6, objective 2√6.
	// Log space: min log(e^y1+e^y2) s.t. y1 + y2 = log 6.
	p := &Problem{
		N:   2,
		Obj: LSE{A: [][]float64{{1, 0}, {0, 1}}, B: []float64{0, 0}},
		Aeq: fromRows([][]float64{{1, 1}}),
		Beq: []float64{math.Log(6)},
	}
	res, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	want := math.Log(2 * math.Sqrt(6))
	if math.Abs(res.Objective-want) > 1e-5 {
		t.Fatalf("objective = %v, want %v", res.Objective, want)
	}
	if math.Abs(res.Y[0]-res.Y[1]) > 1e-4 {
		t.Fatalf("asymmetric solution %v", res.Y)
	}
}

func TestSolveInfeasible(t *testing.T) {
	// x ≤ 0.5 and x ≥ 2 cannot hold: y ≤ log 0.5, −y ≤ −log 2.
	p := &Problem{
		N:   1,
		Obj: Linear([]float64{1}, 0),
		Ineq: []LSE{
			Linear([]float64{1}, -math.Log(0.5)),
			Linear([]float64{-1}, math.Log(2)),
		},
	}
	res, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestSolveInconsistentEquality(t *testing.T) {
	p := &Problem{
		N:   2,
		Obj: Linear([]float64{1, 0}, 0),
		Aeq: fromRows([][]float64{{1, 1}, {2, 2}}),
		Beq: []float64{0, 1},
	}
	res, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestSolveFullyDeterminedByEqualities(t *testing.T) {
	p := &Problem{
		N:   2,
		Obj: LSE{A: [][]float64{{1, 0}}, B: []float64{0}},
		Aeq: fromRows([][]float64{{1, 0}, {0, 1}}),
		Beq: []float64{1, 2},
		Ineq: []LSE{
			Linear([]float64{1, 0}, -3), // y1 ≤ 3: satisfied
		},
	}
	res, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Y[0]-1) > 1e-12 || math.Abs(res.Y[1]-2) > 1e-12 {
		t.Fatalf("result = %+v", res)
	}
	// Now make the fixed point violate an inequality.
	p.Ineq = []LSE{Linear([]float64{1, 0}, 5)} // y1 + 5 ≤ 0: violated
	res, err = Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestSolveUnconstrained(t *testing.T) {
	// minimize log(e^{y} + e^{−y}): optimum at y = 0, value log 2.
	p := &Problem{
		N:   1,
		Obj: LSE{A: [][]float64{{1}, {-1}}, B: []float64{0, 0}},
	}
	res, err := Solve(p, []float64{3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Y[0]) > 1e-5 || math.Abs(res.Objective-math.Log(2)) > 1e-8 {
		t.Fatalf("result = %+v", res)
	}
}

func TestSolveActiveConstraint(t *testing.T) {
	// minimize 1/x (log: −y) subject to x ≤ 5 (y ≤ log 5) → x = 5.
	p := &Problem{
		N:    1,
		Obj:  Linear([]float64{-1}, 0),
		Ineq: []LSE{Linear([]float64{1}, -math.Log(5))},
	}
	res, err := Solve(p, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Exp(res.Y[0])-5) > 1e-3 {
		t.Fatalf("x = %v, want 5", math.Exp(res.Y[0]))
	}
}

func TestStatusString(t *testing.T) {
	if Optimal.String() != "optimal" || Suboptimal.String() != "suboptimal" ||
		Infeasible.String() != "infeasible" || Status(42).String() == "" {
		t.Fatal("Status strings")
	}
}

// Property: for random feasible GP-like problems minimize c·y subject to
// box constraints l ≤ y ≤ u, the solver returns y within the box and at
// the correct corner (sign-dependent).
func TestQuickBoxLP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		c := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		var ineq []LSE
		for i := 0; i < n; i++ {
			c[i] = rng.NormFloat64()
			if math.Abs(c[i]) < 0.1 {
				c[i] = 0.5
			}
			lo[i] = -1 - rng.Float64()
			hi[i] = 1 + rng.Float64()
			ei := make([]float64, n)
			ei[i] = 1
			ineq = append(ineq, Linear(ei, -hi[i])) // y_i ≤ hi
			mi := make([]float64, n)
			mi[i] = -1
			ineq = append(ineq, Linear(mi, lo[i])) // y_i ≥ lo
		}
		p := &Problem{N: n, Obj: Linear(c, 0), Ineq: ineq}
		res, err := Solve(p, nil, Options{})
		if err != nil || res.Status == Infeasible {
			return false
		}
		for i := 0; i < n; i++ {
			want := hi[i]
			if c[i] > 0 {
				want = lo[i]
			}
			if math.Abs(res.Y[i]-want) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

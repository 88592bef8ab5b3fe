package solver

import (
	"repro/internal/linalg"
)

// Workspace holds every reusable buffer of a barrier solve: the linalg
// factor scratch, the Newton-iteration vectors and Hessians, the sparse
// form of the composed log-sum-exp functions, and a cache of the equality
// elimination (particular solution, nullspace basis, composed box
// constraints). The pipeline solves hundreds of GPs per placement that
// share one equality system — identical extent-product and pin
// constraints — so the cache turns an O(N³) elimination plus 2N box
// compositions per solve into a content-equality check.
//
// The zero value is ready to use (NewWorkspace is provided for clarity).
// A Workspace is not safe for concurrent use: pool instances, one per
// in-flight solve. All returned Results hold freshly allocated memory;
// nothing a caller keeps aliases the workspace.
type Workspace struct {
	// Lin is the dense linear-algebra scratch (Cholesky factors,
	// nullspace elimination) shared by every solve on this workspace.
	Lin linalg.Workspace

	// Equality-elimination cache, keyed by problem dimension and
	// equality content.
	eqValid   bool
	cachedN   int
	cachedAeq *linalg.Dense // deep copy; nil means "no equalities"
	cachedBeq []float64
	yPart     []float64
	zBasis    *linalg.Dense
	box       sparseLSEs // box constraints composed against zBasis
	ztz       *linalg.Dense
	ztzValid  bool

	// The functions the Newton loop evaluates, in sparse form: the
	// composed objective and constraints of the current solve (fns) and
	// their phase-I extension (ext). row is composition scratch.
	fns, ext sparseLSEs
	row      []float64

	// Phase-I iterate, and Newton scratch sized to the largest
	// dimension seen.
	phX                        []float64
	g, gTmp, negG, dir, zTrial []float64
	h, hTmp                    *linalg.Dense

	// Hint-projection and recovery scratch, a line-search trial's
	// constraint values, and the cutoff bound's scratch.
	hintD, hintRhs, hintSol, recTmp []float64
	fi, cutW, cutC                  []float64
}

// NewWorkspace returns an empty workspace (equivalent to new(Workspace)).
func NewWorkspace() *Workspace { return &Workspace{} }

// growF resizes *v to n reusing capacity; contents are unspecified.
func growF(v *[]float64, n int) []float64 {
	if cap(*v) < n {
		*v = make([]float64, n)
	}
	*v = (*v)[:n]
	return *v
}

// growDense resizes *m to rows×cols reusing its backing array; contents
// are unspecified.
func growDense(m **linalg.Dense, rows, cols int) *linalg.Dense {
	n := rows * cols
	if *m == nil || cap((*m).Data) < n {
		*m = linalg.NewDense(rows, cols)
		return *m
	}
	(*m).Rows, (*m).Cols, (*m).Data = rows, cols, (*m).Data[:n]
	return *m
}

// sameFloats reports exact element-wise equality.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Exact float compare on purpose: the cache key is exact content identity; any difference must miss.
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// eliminate returns the equality elimination for p — the particular
// solution yPart, nullspace basis zBasis, and the box constraints
// |y_i| ≤ boxBound composed against that basis — from cache when p
// carries the same equalities and dimension as the previous solve.
// The returned values are workspace-owned and must be treated read-only.
func (ws *Workspace) eliminate(p *Problem) (yPart []float64, zBasis *linalg.Dense, boxFns *sparseLSEs, err error) {
	hasEq := p.Aeq != nil && p.Aeq.Rows > 0
	if ws.eqValid && ws.cachedN == p.N {
		switch {
		case !hasEq && ws.cachedAeq == nil:
			return ws.yPart, ws.zBasis, &ws.box, nil
		case hasEq && ws.cachedAeq != nil &&
			ws.cachedAeq.Rows == p.Aeq.Rows && ws.cachedAeq.Cols == p.Aeq.Cols &&
			sameFloats(ws.cachedAeq.Data, p.Aeq.Data) && sameFloats(ws.cachedBeq, p.Beq):
			return ws.yPart, ws.zBasis, &ws.box, nil
		}
	}
	ws.eqValid = false
	ws.ztzValid = false
	if hasEq {
		x0, z, serr := ws.Lin.SolveWithNullspaceInto(p.Aeq, p.Beq)
		if serr != nil {
			return nil, nil, nil, serr
		}
		ws.yPart = append(ws.yPart[:0], x0...)
		zb := growDense(&ws.zBasis, z.Rows, z.Cols)
		copy(zb.Data, z.Data)
		ca := growDense(&ws.cachedAeq, p.Aeq.Rows, p.Aeq.Cols)
		copy(ca.Data, p.Aeq.Data)
		ws.cachedBeq = append(ws.cachedBeq[:0], p.Beq...)
	} else {
		ws.yPart = growF(&ws.yPart, p.N)
		for i := range ws.yPart {
			ws.yPart[i] = 0
		}
		zb := growDense(&ws.zBasis, p.N, p.N)
		for i := range zb.Data {
			zb.Data[i] = 0
		}
		for i := 0; i < p.N; i++ {
			zb.Set(i, i, 1)
		}
		ws.cachedAeq = nil
	}
	// Compose the box constraints once per cache fill; every solve that
	// hits the cache reuses them read-only.
	ws.box.reset(ws.zBasis.Cols)
	raw := boxConstraints(p.N)
	row := growF(&ws.row, ws.zBasis.Cols)
	for i := range raw {
		ws.box.compose(&raw[i], ws.yPart, ws.zBasis, row)
	}
	ws.cachedN = p.N
	ws.eqValid = true
	return ws.yPart, ws.zBasis, &ws.box, nil
}

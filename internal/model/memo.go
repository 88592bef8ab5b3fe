package model

import (
	"math"

	"repro/internal/dataflow"
	"repro/internal/expr"
)

// factorTable is one permutation choice's volumes compiled for
// incremental evaluation: every Poly factor of the Traffic[b][t] and
// Footprint[b][t] products, and for each variable the factors that read
// it. It is immutable once built and shared by every session of the
// permutation choice.
type factorTable struct {
	factors []expr.Poly
	// traffic[b] and footprint[b] bound each tensor's product: the
	// factors of Traffic[b][t] are factors[traffic[b][t]:traffic[b][t+1]],
	// in product order (likewise for footprint).
	traffic, footprint [][]int32
	// readers[v] lists the factors that read variable v, ascending.
	readers [][]int32
}

// newFactorTable compiles v over a nest of nvars variables. The mapper
// builds one per permutation choice it draws, so the table is sized
// from counts first and carved from a few flat arrays.
func newFactorTable(v *dataflow.Volumes, nvars int) *factorTable {
	nf, nb := 0, 0
	for _, prods := range [][][]expr.Product{v.Traffic, v.Footprint} {
		for _, b := range prods {
			nb += len(b) + 1
			for _, pr := range b {
				nf += len(pr.Factors)
			}
		}
	}
	t := &factorTable{factors: make([]expr.Poly, 0, nf), readers: make([][]int32, nvars)}
	bounds := make([]int32, 0, nb)
	compile := func(prods [][]expr.Product) [][]int32 {
		out := make([][]int32, len(prods))
		for b, tensors := range prods {
			lo := len(bounds)
			bounds = append(bounds, int32(len(t.factors)))
			for _, pr := range tensors {
				t.factors = append(t.factors, pr.Factors...)
				bounds = append(bounds, int32(len(t.factors)))
			}
			out[b] = bounds[lo:len(bounds):len(bounds)]
		}
		return out
	}
	t.traffic = compile(v.Traffic)
	t.footprint = compile(v.Footprint)

	// Readers: count each variable's distinct readers, then fill. last[v]
	// is the last factor counted for v, so a factor that reads v in
	// several monomials counts once.
	last := make([]int32, nvars)
	count := make([]int32, nvars)
	eachRead := func(visit func(v expr.VarID, f int32)) {
		for i := range last {
			last[i] = -1
		}
		for f, p := range t.factors {
			for _, m := range p {
				for _, term := range m.Terms {
					if last[term.Var] != int32(f) {
						last[term.Var] = int32(f)
						visit(term.Var, int32(f))
					}
				}
			}
		}
	}
	total := 0
	eachRead(func(v expr.VarID, _ int32) { count[v]++; total++ })
	flat := make([]int32, 0, total)
	for v, c := range count {
		t.readers[v] = flat[len(flat) : len(flat) : len(flat)+int(c)]
		flat = flat[:len(flat)+int(c)]
	}
	eachRead(func(v expr.VarID, f int32) { t.readers[v] = append(t.readers[v], f) })
	return t
}

// update moves the session's memo to the assignment of trips,
// evaluating every factor on the first call and afterwards only the
// factors that read a variable whose value changed. trips must have
// passed CheckTrips.
func (s *EvalSession) update(trips [][]int64) {
	n, t := s.e.Nest, s.tab
	if s.val == nil {
		// One array: the assignment, the factor values, and the
		// per-boundary sums.
		nv, nf, nb := n.Vars.Len(), len(t.factors), len(t.traffic)
		buf := make([]float64, nv+nf+2*nb)
		s.x = n.AssignmentInto(buf[:nv:nv], trips)
		s.val = buf[nv : nv+nf : nv+nf]
		s.traffic = buf[nv+nf : nv+nf+nb : nv+nf+nb]
		s.footprint = buf[nv+nf+nb:]
		for f, p := range t.factors {
			s.val[f] = p.Eval(s.x)
		}
		return
	}
	if s.next == nil {
		s.next = make([]float64, len(s.x))
		s.dirty = make([]bool, len(t.factors))
	}
	next := n.AssignmentInto(s.next, trips)
	for v, xv := range next {
		if math.Float64bits(xv) == math.Float64bits(s.x[v]) {
			continue
		}
		for _, f := range t.readers[v] {
			if !s.dirty[f] {
				s.dirty[f] = true
				s.stale = append(s.stale, f)
			}
		}
	}
	for _, f := range s.stale {
		s.val[f] = t.factors[f].Eval(next)
		s.dirty[f] = false
	}
	s.stale = s.stale[:0]
	s.x, s.next = next, s.x
}

// total returns the sum over tensors of the products bounds delimits,
// with the operations of dataflow.Volumes.EvalTraffic and
// expr.Product.Eval in their order, so its bits equal theirs.
func (s *EvalSession) total(bounds []int32) float64 {
	sum := 0.0
	for t := 1; t < len(bounds); t++ {
		p := 1.0
		for _, v := range s.val[bounds[t-1]:bounds[t]] {
			p *= v
		}
		sum += p
	}
	return sum
}

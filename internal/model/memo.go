package model

import (
	"fmt"
	"math"
	"slices"

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

// load moves the session to the assignment of trips, which must have
// passed CheckTrips: the first call writes it and leaves every factor to
// be evaluated, later calls mark dirty the readers of each variable
// whose value changed.
func (s *EvalSession) load(trips [][]int64) {
	n := s.e.Nest
	if s.x == nil {
		// One array: the assignment, the factor values, and the
		// per-boundary sums.
		nv, nf, nb := n.Vars.Len(), len(s.tab.factors), len(s.tab.traffic)
		buf := make([]float64, nv+nf+2*nb)
		s.x = n.AssignmentInto(buf[:nv:nv], trips)
		s.val = buf[nv : nv+nf : nv+nf]
		s.traffic = buf[nv+nf : nv+nf+nb : nv+nf+nb]
		s.footprint = buf[nv+nf+nb:]
		s.evalAll, s.summed = true, false
		return
	}
	if s.next == nil {
		s.next = make([]float64, len(s.x))
	}
	next := n.AssignmentInto(s.next, trips)
	for v, xv := range next {
		if math.Float64bits(xv) != math.Float64bits(s.x[v]) {
			s.markReaders(expr.VarID(v))
		}
	}
	s.x, s.next = next, s.x
}

// markReaders queues for re-evaluation every factor that reads v.
func (s *EvalSession) markReaders(v expr.VarID) {
	if s.dirty == nil {
		s.dirty = make([]bool, len(s.tab.factors))
	}
	for _, f := range s.tab.readers[v] {
		if !s.dirty[f] {
			s.dirty[f] = true
			s.stale = append(s.stale, f)
		}
	}
	s.summed = false
}

// flush brings the memo up to the assignment: it re-evaluates the
// queued factors (every factor after the first load), then forms each
// boundary's sums and the PEs used. With nothing changed since the last
// flush it does nothing.
func (s *EvalSession) flush() {
	if s.summed {
		return
	}
	t := s.tab
	if s.evalAll {
		for f, p := range t.factors {
			s.val[f] = p.Eval(s.x)
		}
		s.evalAll = false
	} else {
		for _, f := range s.stale {
			s.val[f] = t.factors[f].Eval(s.x)
		}
	}
	for _, f := range s.stale {
		s.dirty[f] = false
	}
	s.stale = s.stale[:0]
	for b := range t.traffic {
		s.traffic[b] = s.total(t.traffic[b])
		s.footprint[b] = s.total(t.footprint[b])
	}
	s.pes = 1
	for _, v := range s.e.spatial {
		s.pes *= int64(s.x[v])
	}
	s.summed = true
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

// SetIter is the session's delta entry. It sets iterator it's trip at
// each of levels to the matching entry of trips, keeps its trips at its
// other levels, and queues for re-evaluation only the factors that read
// a trip whose value changed; the next Price or Sums evaluates them. It
// checks its own input: each level must be a distinct free level of it
// (dataflow.Nest.FreeLevels), each trip at least 1, and after the set
// the iterator's trips must multiply to its extent. Bad input returns
// ErrBadMapping and leaves the memo as it was. A session that has not
// been given a mapping starts from UniformMapping.
func (s *EvalSession) SetIter(it int, levels []int, trips []int64) error {
	e := s.e
	n := e.Nest
	if it < 0 || it >= len(e.free) || len(levels) != len(trips) {
		return fmt.Errorf("%w: iterator %d set at %d levels with %d trips", ErrBadMapping, it, len(levels), len(trips))
	}
	if s.x == nil {
		s.load(UniformMapping(n).Trips)
	}
	iter := &n.Prob.Iters[it]
	prod, set := e.pinned[it], 0
	for _, li := range e.free[it] {
		trip := int64(s.x[n.Levels[li].Trips[it]])
		if k := slices.Index(levels, li); k >= 0 {
			trip = trips[k]
			set++
		}
		if trip < 1 || prod > iter.Extent/trip {
			return fmt.Errorf("%w: iterator %s trip %d at level %s leaves no integer product equal to its extent %d", ErrBadMapping, iter.Name, trip, n.Levels[li].Name, iter.Extent)
		}
		prod *= trip
	}
	if set != len(levels) {
		return fmt.Errorf("%w: iterator %s set at levels %v, its free levels are %v", ErrBadMapping, iter.Name, levels, e.free[it])
	}
	if prod != iter.Extent {
		return fmt.Errorf("%w: iterator %s trips multiply to %d, want %d", ErrBadMapping, iter.Name, prod, iter.Extent)
	}
	for k, li := range levels {
		v := n.Levels[li].Trips[it]
		if x := float64(trips[k]); math.Float64bits(x) != math.Float64bits(s.x[v]) {
			s.x[v] = x
			s.markReaders(v)
		}
	}
	return nil
}

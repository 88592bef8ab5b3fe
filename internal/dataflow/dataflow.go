// Package dataflow models the multi-level tiled execution of a loop-nest
// problem on a spatial accelerator, implementing the paper's Algorithm 1:
// inner-to-outer construction of symbolic data-footprint (DF) and
// data-volume (DV) expressions per tensor and per tiling level, in terms
// of per-level trip-count variables.
//
// The standard nest mirrors Fig. 1 of the paper, inner to outer:
//
//	level 0  register tile      (temporal; data resides in registers)
//	level 1  register-tile loops (temporal; copies SRAM → registers)
//	level 2  PE grid            (spatial; multicast for read-only tensors)
//	level 3  SRAM-tile loops    (temporal; copies DRAM → SRAM)
//
// Trip-count variables follow the paper's notation: the product of an
// iterator's trip counts across all levels equals the full loop extent.
package dataflow

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/loopnest"
)

// ErrBadNest reports an invalid nest configuration.
var ErrBadNest = errors.New("dataflow: invalid nest")

// LevelKind distinguishes sequential loop levels from the spatial PE grid.
type LevelKind int

const (
	// Temporal levels are sequential loops.
	Temporal LevelKind = iota
	// Spatial levels distribute iterations across processing elements.
	// Data for iterators absent from a tensor's subscripts is multicast
	// (counted once) for read-only tensors; each PE along such an
	// iterator contributes its own partial-sum traffic for read-write
	// ones (no free spatial reduction, the paper's conservative
	// treatment).
	Spatial
)

// LevelConfig describes one tiling level of a nest.
type LevelConfig struct {
	Name string
	Kind LevelKind
	// Copy marks temporal levels whose loops surround an explicit data
	// copy into the buffer level just below (e.g. the register-tile
	// loops copy SRAM → registers).
	Copy bool
	// Active lists the iterators that may have trip count > 1 at this
	// level. Iterators absent from Active have trip exactly 1 here.
	Active []int
	// Fixed pins the trip counts of a subset of Active to constants
	// (e.g. an untiled full kernel loop). Fixed trip counts of 1 should
	// instead be expressed by omitting the iterator from Active.
	Fixed map[int]int64
}

// Level is a configured tiling level with its trip-count variables.
type Level struct {
	LevelConfig
	// Trips maps iterator index → trip-count variable. Iterators not
	// active at this level map to expr.NoVar. Note that at level 0 every
	// iterator has a variable (possibly pinned to 1) so that extent
	// expressions stay iterator-tagged for Algorithm 1's replace step.
	Trips []expr.VarID
}

// TripOf returns the trip variable of iterator it, or expr.NoVar.
func (l *Level) TripOf(it int) expr.VarID { return l.Trips[it] }

// Pin records a variable whose value is fixed by the nest configuration.
type Pin struct {
	Var   expr.VarID
	Value float64
}

// Nest is a problem together with its tiling levels and trip variables.
type Nest struct {
	Prob   *loopnest.Problem
	Vars   *expr.VarSet
	Levels []Level // index 0 = innermost
	// Pins lists trip variables with configuration-fixed values
	// (including level-0 placeholders pinned to 1).
	Pins []Pin

	// VarID → iterator index and level index of the nest's trip
	// variables (see IterOfVar, LevelOfVar).
	iterOfVar, levelOfVar []int
}

// NewNest builds a nest over the problem with the given level
// configurations (ordered inner to outer). Level 0 must be temporal and
// non-copy; it is the innermost tile whose data resides in the lowest
// buffer level.
func NewNest(p *loopnest.Problem, cfgs []LevelConfig) (*Nest, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(cfgs) < 2 {
		return nil, fmt.Errorf("%w: need at least two levels", ErrBadNest)
	}
	if cfgs[0].Kind != Temporal || cfgs[0].Copy {
		return nil, fmt.Errorf("%w: level 0 must be temporal and non-copy", ErrBadNest)
	}
	n := &Nest{Prob: p, Vars: &expr.VarSet{}}
	for li, cfg := range cfgs {
		lvl := Level{LevelConfig: cfg, Trips: make([]expr.VarID, len(p.Iters))}
		for i := range lvl.Trips {
			lvl.Trips[i] = expr.NoVar
		}
		active := make(map[int]bool, len(cfg.Active))
		for _, it := range cfg.Active {
			if it < 0 || it >= len(p.Iters) {
				return nil, fmt.Errorf("%w: level %s references iterator %d", ErrBadNest, cfg.Name, it)
			}
			if active[it] {
				return nil, fmt.Errorf("%w: level %s repeats iterator %d", ErrBadNest, cfg.Name, it)
			}
			active[it] = true
		}
		for it := range p.Iters {
			needVar := active[it] || li == 0
			if !needVar {
				continue
			}
			v := n.Vars.NewVar(fmt.Sprintf("%s_%s", cfg.Name, p.Iters[it].Name))
			lvl.Trips[it] = v
			n.iterOfVar = append(n.iterOfVar, it)
			n.levelOfVar = append(n.levelOfVar, li)
			if fixed, ok := cfg.Fixed[it]; ok {
				if !active[it] {
					return nil, fmt.Errorf("%w: level %s fixes inactive iterator %d", ErrBadNest, cfg.Name, it)
				}
				if fixed < 1 {
					return nil, fmt.Errorf("%w: level %s fixes iterator %d to %d", ErrBadNest, cfg.Name, it, fixed)
				}
				n.Pins = append(n.Pins, Pin{Var: v, Value: float64(fixed)})
			} else if !active[it] {
				// Level-0 placeholder for an iterator tiled elsewhere.
				n.Pins = append(n.Pins, Pin{Var: v, Value: 1})
			}
		}
		n.Levels = append(n.Levels, lvl)
	}
	return n, nil
}

// IterOfVar maps a trip variable back to its iterator, or −1 for
// variables not owned by the nest (architecture variables registered
// later on the same VarSet).
func (n *Nest) IterOfVar(v expr.VarID) int {
	if int(v) < len(n.iterOfVar) {
		return n.iterOfVar[v]
	}
	return -1
}

// DimTripVars returns the trip variables of iterator it across all
// levels (inner to outer), skipping levels where it is inactive (and not
// level 0).
func (n *Nest) DimTripVars(it int) []expr.VarID {
	var out []expr.VarID
	for _, lvl := range n.Levels {
		if v := lvl.Trips[it]; v != expr.NoVar {
			out = append(out, v)
		}
	}
	return out
}

// regFootprint builds DF⁰ for tensor t: the product over tensor
// dimensions of the extent polynomial Σⱼ strideⱼ·tripⱼ − (Σⱼ strideⱼ − 1)
// using the level-0 trip variables.
func (n *Nest) regFootprint(t loopnest.Tensor) expr.Product {
	l0 := &n.Levels[0]
	var factors []expr.Poly
	for _, dim := range t.Dims {
		var poly expr.Poly
		strideSum := int64(0)
		for _, term := range dim.Terms {
			poly = append(poly, expr.MonoPow(float64(term.Stride), l0.Trips[term.Iter], 1))
			strideSum += term.Stride
		}
		if c := strideSum - 1; c != 0 {
			poly = append(poly, expr.Const(-float64(c)))
		}
		poly.Canon()
		factors = append(factors, poly)
	}
	return expr.ProductOf(factors...)
}

// constructExpr is the paper's Algorithm 1: given the footprint df at the
// next-lower level and the outer-to-inner iterator permutation of a
// temporal level, it returns the footprint and per-execution data volume
// at this level. Iterators in perm must be active at the level. The
// volume depends on perm only through signatureOf(perm, t): df scaled by
// the innermost iterator t uses, times every trip above it.
func (n *Nest) constructExpr(level int, perm []int, t loopnest.Tensor, df expr.Product) (dfOut, dvOut expr.Product) {
	lvl := &n.Levels[level]
	dfOut = df.Clone()
	dvOut = df.Clone()
	canHoist := true
	iterOf := n.IterOfVar
	for k := len(perm) - 1; k >= 0; k-- {
		it := perm[k]
		c := lvl.Trips[it]
		present := t.Uses(it)
		if canHoist {
			if present {
				canHoist = false
				dfOut.ScaleVarMonomials(iterOf, it, c)
				dvOut.ScaleVarMonomials(iterOf, it, c)
			}
			// Absent before the innermost present iterator: the copy is
			// hoisted above this loop; no change.
		} else {
			if present {
				dfOut.ScaleVarMonomials(iterOf, it, c)
			}
			dvOut.MulVar(c)
		}
	}
	return dfOut, dvOut
}

// dvSig is what a tensor's data volume at a copy level depends on in a
// permutation: the trailing run of iterators the tensor does not use
// (its copy is hoisted above them) and the innermost one it uses. The
// hoisted set alone is not enough: the innermost used iterator decides
// which footprint dimension is scaled.
type dvSig struct {
	hoisted uint64 // bit it set for each hoisted iterator it
	inner   int    // innermost used iterator, or −1 if t uses none
}

// signatureOf returns t's dvSig under the outer-to-inner order perm.
func signatureOf(perm []int, t loopnest.Tensor) dvSig {
	sig := dvSig{inner: -1}
	for k := len(perm) - 1; k >= 0; k-- {
		if t.Uses(perm[k]) {
			sig.inner = perm[k]
			break
		}
		sig.hoisted |= 1 << perm[k]
	}
	return sig
}

// advanceSpatial returns df advanced across a spatial level (present
// iterators expand the footprint) and the traffic multiplier for volumes
// recorded at inner levels: present iterators always multiply; absent
// iterators multiply only for read-write tensors, which get no multicast.
func (n *Nest) advanceSpatial(level int, t loopnest.Tensor, df expr.Product) (dfOut expr.Product, factor expr.Product) {
	lvl := &n.Levels[level]
	dfOut = df.Clone()
	factor = expr.Product{}
	for _, it := range lvl.Active {
		c := lvl.Trips[it]
		if t.Uses(it) {
			dfOut.ScaleVarMonomials(n.IterOfVar, it, c)
			factor.MulVar(c)
		} else if t.ReadWrite {
			factor.MulVar(c)
		}
	}
	return dfOut, factor
}

// advanceTemporalAll returns the product of all trip variables of a
// temporal level, the multiplier applied to inner-level volumes by loops
// above their copy level.
func (n *Nest) advanceTemporalAll(level int) expr.Product {
	lvl := &n.Levels[level]
	f := expr.Product{}
	for _, it := range lvl.Active {
		f.MulVar(lvl.Trips[it])
	}
	return f
}

// Boundary identifies one buffer level of the memory hierarchy, inner to
// outer (0 = the lowest buffer, registers in the standard nest).
type Boundary struct {
	// Name is the copy level's name.
	Name string
	// CopyLevel is the temporal level whose loops surround copies into
	// this buffer.
	CopyLevel int
}

// Volumes holds the symbolic footprint and traffic expressions of a nest
// for one choice of per-level permutations.
type Volumes struct {
	Nest *Nest
	// Boundaries lists the buffer levels, inner to outer.
	Boundaries []Boundary
	// Footprint[b][t] is the buffer size tensor t needs at boundary b.
	Footprint [][]expr.Product
	// Traffic[b][t] is the total data volume moved across boundary b for
	// tensor t over the whole execution, including the ×2 for read-write
	// tensors (read + write-back).
	Traffic [][]expr.Product
	// TopFootprint[t] is the footprint after the outermost level (the
	// full tensor slice touched; equals the tensor size symbolically).
	TopFootprint []expr.Product
}

// ComputeVolumes runs Algorithm 1 across all levels. perms[l] gives the
// outer-to-inner iterator order for each temporal copy level l (entries
// for other levels are ignored and may be nil). Each perm must be a
// permutation of the level's Active set.
func (n *Nest) ComputeVolumes(perms [][]int) (*Volumes, error) {
	if len(perms) != len(n.Levels) {
		return nil, fmt.Errorf("%w: got %d perms for %d levels", ErrBadNest, len(perms), len(n.Levels))
	}
	for li := range n.Levels {
		lvl := &n.Levels[li]
		if lvl.Copy {
			if err := checkPerm(perms[li], lvl.Active); err != nil {
				return nil, fmt.Errorf("level %s: %w", lvl.Name, err)
			}
		}
	}
	v := &Volumes{Nest: n}
	nt := len(n.Prob.Tensors)
	df := make([]expr.Product, nt)
	for ti, t := range n.Prob.Tensors {
		df[ti] = n.regFootprint(t)
	}
	for li := 1; li < len(n.Levels); li++ {
		lvl := &n.Levels[li]
		switch {
		case lvl.Kind == Temporal && lvl.Copy:
			foot := make([]expr.Product, nt)
			traf := make([]expr.Product, nt)
			var mult expr.Product
			for ti, t := range n.Prob.Tensors {
				foot[ti] = df[ti].Clone()
				newDF, dv := n.constructExpr(li, perms[li], t, df[ti])
				if t.ReadWrite {
					dv.MulMono(expr.Const(2))
				}
				traf[ti] = dv
				df[ti] = newDF
			}
			mult = n.advanceTemporalAll(li)
			// Inner traffic re-executes once per iteration of this level.
			for b := range v.Traffic {
				for ti := range v.Traffic[b] {
					v.Traffic[b][ti].Factors = append(v.Traffic[b][ti].Factors, mult.Clone().Factors...)
				}
			}
			v.Boundaries = append(v.Boundaries, Boundary{Name: lvl.Name, CopyLevel: li})
			v.Footprint = append(v.Footprint, foot)
			v.Traffic = append(v.Traffic, traf)
		case lvl.Kind == Temporal && !lvl.Copy:
			mult := n.advanceTemporalAll(li)
			for b := range v.Traffic {
				for ti := range v.Traffic[b] {
					v.Traffic[b][ti].Factors = append(v.Traffic[b][ti].Factors, mult.Clone().Factors...)
				}
			}
			for ti, t := range n.Prob.Tensors {
				for _, it := range lvl.Active {
					if t.Uses(it) {
						df[ti].ScaleVarMonomials(n.IterOfVar, it, lvl.Trips[it])
					}
				}
			}
		case lvl.Kind == Spatial:
			for ti, t := range n.Prob.Tensors {
				newDF, factor := n.advanceSpatial(li, t, df[ti])
				df[ti] = newDF
				for b := range v.Traffic {
					v.Traffic[b][ti].Factors = append(v.Traffic[b][ti].Factors, factor.Clone().Factors...)
				}
			}
		}
	}
	v.TopFootprint = df
	return v, nil
}

func checkPerm(perm, active []int) error {
	if len(perm) != len(active) {
		return fmt.Errorf("%w: perm length %d, active %d", ErrBadNest, len(perm), len(active))
	}
	want := map[int]bool{}
	for _, it := range active {
		want[it] = true
	}
	seen := map[int]bool{}
	for _, it := range perm {
		if !want[it] || seen[it] {
			return fmt.Errorf("%w: perm %v is not a permutation of %v", ErrBadNest, perm, active)
		}
		seen[it] = true
	}
	return nil
}

// Folded returns a copy of the volumes with the nest's pinned trip
// variables constant-folded into every expression. Folding before the
// posynomial relaxation makes stride-1 convolution extents exact (e.g.
// t_h + t_r − 1 with t_r pinned to 3 becomes t_h + 2, which has no
// negative constant to drop), tightening the geometric programs.
func (v *Volumes) Folded() *Volumes {
	vals := map[expr.VarID]float64{}
	for _, pin := range v.Nest.Pins {
		vals[pin.Var] = pin.Value
	}
	fold := func(in [][]expr.Product) [][]expr.Product {
		out := make([][]expr.Product, len(in))
		for b := range in {
			out[b] = make([]expr.Product, len(in[b]))
			for ti := range in[b] {
				out[b][ti] = in[b][ti].SubstConst(vals)
			}
		}
		return out
	}
	top := make([]expr.Product, len(v.TopFootprint))
	for ti := range v.TopFootprint {
		top[ti] = v.TopFootprint[ti].SubstConst(vals)
	}
	return &Volumes{
		Nest:         v.Nest,
		Boundaries:   append([]Boundary(nil), v.Boundaries...),
		Footprint:    fold(v.Footprint),
		Traffic:      fold(v.Traffic),
		TopFootprint: top,
	}
}

// SumTraffic returns the sum over tensors of the expanded traffic
// polynomials at boundary b. relax applies the posynomial relaxation.
func (v *Volumes) SumTraffic(b int, relax bool) expr.Poly {
	var sum expr.Poly
	for ti := range v.Traffic[b] {
		sum = sum.Add(v.Traffic[b][ti].Expand(relax))
	}
	return sum
}

// SumFootprint returns the sum over tensors of the expanded footprint
// polynomials at boundary b.
func (v *Volumes) SumFootprint(b int, relax bool) expr.Poly {
	var sum expr.Poly
	for ti := range v.Footprint[b] {
		sum = sum.Add(v.Footprint[b][ti].Expand(relax))
	}
	return sum
}

// EvalTraffic evaluates the exact total traffic at boundary b under the
// assignment x.
func (v *Volumes) EvalTraffic(b int, x []float64) float64 {
	s := 0.0
	for ti := range v.Traffic[b] {
		s += v.Traffic[b][ti].Eval(x)
	}
	return s
}

// EvalFootprint evaluates the exact total footprint at boundary b under
// the assignment x.
func (v *Volumes) EvalFootprint(b int, x []float64) float64 {
	s := 0.0
	for ti := range v.Footprint[b] {
		s += v.Footprint[b][ti].Eval(x)
	}
	return s
}

// String renders all expressions for debugging.
func (v *Volumes) String() string {
	var b strings.Builder
	for bi, bd := range v.Boundaries {
		fmt.Fprintf(&b, "boundary %d (%s):\n", bi, bd.Name)
		for ti, t := range v.Nest.Prob.Tensors {
			fmt.Fprintf(&b, "  DF_%s = %s\n", t.Name, v.Footprint[bi][ti].String(v.Nest.Vars))
			fmt.Fprintf(&b, "  DV_%s = %s\n", t.Name, v.Traffic[bi][ti].String(v.Nest.Vars))
		}
	}
	return b.String()
}

// PermClass is one equivalence class of iterator permutations at a copy
// level: all member permutations induce identical DF/DV expressions, so
// only the representative needs to be optimized.
type PermClass struct {
	Perm []int  // representative, outer-to-inner
	Key  string // canonical signature
	Size int    // number of permutations collapsed into this class
}

// EnumerateClasses enumerates the distinct permutation classes of the
// copy level li by brute-force permutation generation plus signature
// deduplication — the paper's hoist-prefix pruning falls out of the
// signature equality. syms lists involutions (each a set of disjoint
// iterator pairs swapped together) under which the problem is invariant
// (the paper's H/W symmetry, which for convolution swaps h↔w jointly
// with r↔s); classes equivalent under an involution are merged.
func (n *Nest) EnumerateClasses(li int, syms []Involution) ([]PermClass, error) {
	df, swaps, err := n.classInputs(li, syms)
	if err != nil {
		return nil, err
	}
	// A tensor's DV depends on the permutation only through its dvSig,
	// so each tensor's plain and swapped keys are built once per distinct
	// signature; a permutation's key joins its tensors' pieces with ';'
	// and takes the least of the plain and swapped joins.
	var kb expr.KeyBuf
	pieces := make([]map[dvSig][][]byte, len(df))
	for ti := range pieces {
		pieces[ti] = map[dvSig][][]byte{}
	}
	cur := make([][][]byte, len(df)) // the current permutation's pieces per tensor
	join := func(dst []byte, v int) []byte {
		dst = dst[:0]
		for ti := range cur {
			if ti > 0 {
				dst = append(dst, ';')
			}
			dst = append(dst, cur[ti][v]...)
		}
		return dst
	}
	var keyBuf, bestBuf []byte
	return n.collectClasses(li, func(perm []int) []byte {
		for ti, t := range n.Prob.Tensors {
			sig := signatureOf(perm, t)
			ks, ok := pieces[ti][sig]
			if !ok {
				_, dv := n.constructExpr(li, perm, t, df[ti])
				ks = make([][]byte, 1+len(swaps))
				ks[0] = kb.AppendProductKey(nil, dv, nil)
				for si, swap := range swaps {
					ks[1+si] = kb.AppendProductKey(nil, dv, swap)
				}
				pieces[ti][sig] = ks
			}
			cur[ti] = ks
		}
		bestBuf = join(bestBuf, 0)
		for v := 1; v <= len(swaps); v++ {
			keyBuf = join(keyBuf, v)
			if bytes.Compare(keyBuf, bestBuf) < 0 {
				bestBuf, keyBuf = keyBuf, bestBuf
			}
		}
		return bestBuf
	}), nil
}

// classInputs validates the copy level li and returns what its class
// keys are built from: every tensor's footprint below the level (which
// no permutation of li changes) and one trip-variable swap map per
// involution in syms, each swapping the full trip-variable chains of
// its iterator pairs.
func (n *Nest) classInputs(li int, syms []Involution) ([]expr.Product, []map[expr.VarID]expr.VarID, error) {
	if li <= 0 || li >= len(n.Levels) {
		return nil, nil, fmt.Errorf("%w: level %d out of range", ErrBadNest, li)
	}
	lvl := &n.Levels[li]
	if lvl.Kind != Temporal || !lvl.Copy {
		return nil, nil, fmt.Errorf("%w: level %s is not a copy level", ErrBadNest, lvl.Name)
	}
	if len(n.Prob.Iters) > 64 {
		return nil, nil, fmt.Errorf("%w: %d iterators, at most 64 can be enumerated", ErrBadNest, len(n.Prob.Iters))
	}
	df := make([]expr.Product, len(n.Prob.Tensors))
	for ti, t := range n.Prob.Tensors {
		df[ti] = n.regFootprint(t)
	}
	for lj := 1; lj < li; lj++ {
		lower := &n.Levels[lj]
		for ti, t := range n.Prob.Tensors {
			for _, it := range lower.Active {
				if t.Uses(it) {
					df[ti].ScaleVarMonomials(n.IterOfVar, it, lower.Trips[it])
				}
			}
		}
	}
	var swaps []map[expr.VarID]expr.VarID
	for _, inv := range syms {
		swap := map[expr.VarID]expr.VarID{}
		valid := true
		for _, pr := range inv {
			a := n.DimTripVars(pr[0])
			b := n.DimTripVars(pr[1])
			if len(a) != len(b) {
				valid = false
				break
			}
			for i := range a {
				swap[a[i]] = b[i]
				swap[b[i]] = a[i]
			}
		}
		if valid && len(swap) > 0 {
			swaps = append(swaps, swap)
		}
	}
	return df, swaps, nil
}

// collectClasses groups the permutations of level li's active iterators
// by key: each class keeps the first permutation in Heap order as its
// representative and counts its members. Classes come out sorted by key.
func (n *Nest) collectClasses(li int, key func(perm []int) []byte) []PermClass {
	classes := map[string]*PermClass{}
	var order []string
	Permute(append([]int(nil), n.Levels[li].Active...), func(perm []int) {
		k := key(perm)
		if c, ok := classes[string(k)]; ok {
			c.Size++
			return
		}
		ks := string(k)
		classes[ks] = &PermClass{Perm: append([]int(nil), perm...), Key: ks, Size: 1}
		order = append(order, ks)
	})
	sort.Strings(order)
	out := make([]PermClass, 0, len(classes))
	for _, k := range order {
		out = append(out, *classes[k])
	}
	return out
}

// Permute invokes fn with every permutation of s (Heap's algorithm). fn
// must not retain s.
func Permute(s []int, fn func([]int)) {
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(s)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				s[i], s[k-1] = s[k-1], s[i]
			} else {
				s[0], s[k-1] = s[k-1], s[0]
			}
		}
	}
	if len(s) == 0 {
		fn(s)
		return
	}
	rec(len(s))
}

// Involution is a set of disjoint iterator pairs that are swapped
// simultaneously.
type Involution [][2]int

// SymmetricInvolutions returns the involutions under which the problem is
// invariant, considering single pairs and joint two-pair swaps (the
// paper's H/W symmetry, which for convolution requires swapping h↔w and
// r↔s together). Only pairs with equal extents are considered.
func SymmetricInvolutions(p *loopnest.Problem) []Involution {
	var candidates [][2]int
	for a := 0; a < len(p.Iters); a++ {
		for b := a + 1; b < len(p.Iters); b++ {
			if p.Iters[a].Extent == p.Iters[b].Extent {
				candidates = append(candidates, [2]int{a, b})
			}
		}
	}
	var out []Involution
	for _, pr := range candidates {
		if invariantUnder(p, Involution{pr}) {
			out = append(out, Involution{pr})
		}
	}
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			a, b := candidates[i], candidates[j]
			if a[0] == b[0] || a[0] == b[1] || a[1] == b[0] || a[1] == b[1] {
				continue // not disjoint
			}
			inv := Involution{a, b}
			// Skip if each pair is independently a symmetry (the joint
			// swap is then redundant for canonicalization purposes).
			if invariantUnder(p, Involution{a}) && invariantUnder(p, Involution{b}) {
				continue
			}
			if invariantUnder(p, inv) {
				out = append(out, inv)
			}
		}
	}
	return out
}

// invariantUnder reports whether every tensor's subscript multiset is
// unchanged by the involution.
func invariantUnder(p *loopnest.Problem, inv Involution) bool {
	swapIt := func(it int) int {
		for _, pr := range inv {
			switch it {
			case pr[0]:
				return pr[1]
			case pr[1]:
				return pr[0]
			}
		}
		return it
	}
	dimKey := func(d loopnest.IndexExpr, mapped bool) string {
		terms := make([]string, 0, len(d.Terms))
		for _, t := range d.Terms {
			it := t.Iter
			if mapped {
				it = swapIt(it)
			}
			terms = append(terms, fmt.Sprintf("%d*%d", t.Stride, it))
		}
		sort.Strings(terms)
		return strings.Join(terms, "+")
	}
	for _, t := range p.Tensors {
		orig := make([]string, len(t.Dims))
		swapped := make([]string, len(t.Dims))
		for i, d := range t.Dims {
			orig[i] = dimKey(d, false)
			swapped[i] = dimKey(d, true)
		}
		sort.Strings(orig)
		sort.Strings(swapped)
		for i := range orig {
			if orig[i] != swapped[i] {
				return false
			}
		}
	}
	return true
}

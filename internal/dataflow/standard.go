package dataflow

import (
	"fmt"
	"slices"

	"repro/internal/expr"
	"repro/internal/loopnest"
)

// RSPlacement selects at which level the untiled convolution kernel loops
// (r, s) execute (the paper prunes tiling of these loops because kernel
// extents are small odd numbers).
type RSPlacement int

const (
	// RSAtRegister places the full r/s loops inside the register tile
	// (weights for a full kernel window resident in the register file).
	RSAtRegister RSPlacement = iota
	// RSAtLevel1 places the full r/s loops among the register-tile loops
	// (matching the worked example of the paper's Table I).
	RSAtLevel1
)

func (r RSPlacement) String() string {
	switch r {
	case RSAtRegister:
		return "rs_at_register"
	case RSAtLevel1:
		return "rs_at_level1"
	default:
		return fmt.Sprintf("rs_placement(%d)", int(r))
	}
}

// StandardOptions configures StandardNest.
type StandardOptions struct {
	// RS selects the placement of untiled small loops (see RSPlacement).
	RS RSPlacement
}

// StandardLevelReg, StandardLevelL1, StandardLevelSpatial, and
// StandardLevelSRAM are the level indices of the standard nest.
const (
	StandardLevelReg     = 0
	StandardLevelL1      = 1
	StandardLevelSpatial = 2
	StandardLevelSRAM    = 3
)

// StandardNest builds the paper's three-level-memory nest (Fig. 1):
// register tile, register-tile loops (SRAM→register copies), spatial PE
// grid, and SRAM-tile loops (DRAM→SRAM copies). It is BuildNest's
// depth-2 case: two buffers, the registers private to each PE.
func StandardNest(p *loopnest.Problem, opts StandardOptions) (*Nest, error) {
	return BuildNest(p, 2, 0, opts.RS)
}

// BuildNest builds the nest of a memory hierarchy of copies buffers,
// inner to outer: the register tile "reg" (level 0), one temporal copy
// level per buffer, whose loops surround the copies into it, and the
// spatial PE grid "p" right above the copy level of buffer
// spatialAfter, the last buffer private to each PE. The copy levels
// are "q" (the innermost), "q1", "q2", … and "t" (DRAM → the outermost
// buffer), so the depth-2 nest is reg, q, p, t.
//
// Iterators with extent 1 are inactive at every level. Iterators named
// "r" or "s" (convolution kernel loops) are untiled: their full extents
// are pinned at the register tile, or with RSAtLevel1 at the innermost
// copy level.
func BuildNest(p *loopnest.Problem, copies, spatialAfter int, rs RSPlacement) (*Nest, error) {
	if copies < 1 || spatialAfter < 0 || spatialAfter >= copies {
		return nil, fmt.Errorf("%w: %d copy levels with the PE grid above copy level %d", ErrBadNest, copies, spatialAfter)
	}
	var tiled, untiled []int
	for i, it := range p.Iters {
		if it.Extent == 1 {
			continue
		}
		if it.Name == "r" || it.Name == "s" {
			untiled = append(untiled, i)
		} else {
			tiled = append(tiled, i)
		}
	}
	// level configures a level over the tiled iterators, plus the
	// untiled ones pinned at their extents when pin is set.
	level := func(name string, kind LevelKind, isCopy, pin bool) LevelConfig {
		cfg := LevelConfig{Name: name, Kind: kind, Copy: isCopy, Active: slices.Clone(tiled)}
		if pin {
			cfg.Fixed = make(map[int]int64, len(untiled))
			for _, it := range untiled {
				cfg.Active = append(cfg.Active, it)
				cfg.Fixed[it] = p.Iters[it].Extent
			}
		}
		return cfg
	}
	cfgs := []LevelConfig{level("reg", Temporal, false, rs == RSAtRegister)}
	for b := range copies {
		name := "t"
		switch {
		case b == 0 && copies > 1:
			name = "q"
		case b < copies-1:
			name = fmt.Sprintf("q%d", b)
		}
		cfgs = append(cfgs, level(name, Temporal, true, b == 0 && rs == RSAtLevel1))
		if b == spatialAfter {
			cfgs = append(cfgs, level("p", Spatial, false, false))
		}
	}
	return NewNest(p, cfgs)
}

// CopyLevels returns the nest's copy levels, inner to outer: the loops
// of copy level b surround the copies into buffer b, across memory
// boundary b.
func (n *Nest) CopyLevels() []int {
	var out []int
	for li := range n.Levels {
		if n.Levels[li].Kind == Temporal && n.Levels[li].Copy {
			out = append(out, li)
		}
	}
	return out
}

// StandardPerms assembles the per-level permutation slice expected by
// ComputeVolumes for a standard nest from the two copy-level orders.
func StandardPerms(l1, sram []int) [][]int {
	return [][]int{nil, l1, nil, sram}
}

// SpatialTripVars returns the trip variables of the nest's spatial
// level (the PE-grid extents the paper calls P_i).
func (n *Nest) SpatialTripVars() []expr.VarID {
	for li := range n.Levels {
		if n.Levels[li].Kind == Spatial {
			var out []expr.VarID
			for _, it := range n.Levels[li].Active {
				out = append(out, n.Levels[li].Trips[it])
			}
			return out
		}
	}
	return nil
}

// DimEqualities returns, for every iterator of the problem, the monomial
// that must equal the iterator's full extent: the product of its trip
// variables across all levels. Iterators with extent 1 and no variables
// are skipped.
func (n *Nest) DimEqualities() []DimEquality {
	var out []DimEquality
	for it := range n.Prob.Iters {
		vars := n.DimTripVars(it)
		if len(vars) == 0 {
			continue
		}
		out = append(out, DimEquality{
			Iter:   it,
			Vars:   vars,
			Extent: n.Prob.Iters[it].Extent,
		})
	}
	return out
}

// DimEquality states that the product of Vars equals Extent.
type DimEquality struct {
	Iter   int
	Vars   []expr.VarID
	Extent int64
}

// Assignment builds a full variable assignment (indexed by VarID over the
// nest's VarSet, extended to total variables) from per-level trip values.
// trips[li][it] gives the trip of iterator it at level li; entries for
// variables the nest does not have are ignored. Pinned variables receive
// their pinned values. Missing entries default to 1.
func (n *Nest) Assignment(total int, trips [][]int64) []float64 {
	return n.AssignmentInto(make([]float64, total), trips)
}

// AssignmentInto is Assignment writing into the caller-owned dst (whose
// length fixes the variable count), so evaluation loops can reuse one
// buffer. Returns dst.
func (n *Nest) AssignmentInto(dst []float64, trips [][]int64) []float64 {
	x := dst
	for i := range x {
		x[i] = 1
	}
	for li := range n.Levels {
		for it, v := range n.Levels[li].Trips {
			if v == expr.NoVar {
				continue
			}
			if li < len(trips) && it < len(trips[li]) && trips[li][it] > 0 {
				x[v] = float64(trips[li][it])
			}
		}
	}
	for _, pin := range n.Pins {
		x[pin.Var] = pin.Value
	}
	return x
}

// CheckTrips validates that per-level trips multiply to the full extents
// and respect pinned values.
func (n *Nest) CheckTrips(trips [][]int64) error {
	if len(trips) != len(n.Levels) {
		return fmt.Errorf("%w: got %d levels of trips, want %d", ErrBadNest, len(trips), len(n.Levels))
	}
	for it, iter := range n.Prob.Iters {
		prod := int64(1)
		for li := range n.Levels {
			tv := int64(1)
			if it < len(trips[li]) && trips[li][it] > 0 {
				tv = trips[li][it]
			}
			if n.Levels[li].Trips[it] == expr.NoVar && tv != 1 {
				return fmt.Errorf("%w: iterator %s has trip %d at inactive level %s", ErrBadNest, iter.Name, tv, n.Levels[li].Name)
			}
			prod *= tv
		}
		if prod != iter.Extent {
			return fmt.Errorf("%w: iterator %s trips multiply to %d, want %d", ErrBadNest, iter.Name, prod, iter.Extent)
		}
	}
	for _, pin := range n.Pins {
		it := n.IterOfVar(pin.Var)
		li := n.LevelOfVar(pin.Var)
		tv := int64(1)
		if li >= 0 && li < len(trips) && it < len(trips[li]) && trips[li][it] > 0 {
			tv = trips[li][it]
		}
		if float64(tv) != pin.Value {
			return fmt.Errorf("%w: iterator %s pinned to %g at level %s but trip is %d",
				ErrBadNest, n.Prob.Iters[it].Name, pin.Value, n.Levels[li].Name, tv)
		}
	}
	return nil
}

// LevelOfVar maps a trip variable to the level owning it, or −1 for
// variables not owned by the nest.
func (n *Nest) LevelOfVar(v expr.VarID) int {
	if v >= 0 && int(v) < len(n.levelOfVar) {
		return n.levelOfVar[v]
	}
	return -1
}

// pinned reports whether v is one of the nest's pinned trips.
func (n *Nest) pinned(v expr.VarID) bool {
	for _, pin := range n.Pins {
		if pin.Var == v {
			return true
		}
	}
	return false
}

// FreeLevels returns the levels, inner to outer, at which iterator it
// has a free (not pinned) trip: the levels a tiling of it chooses.
func (n *Nest) FreeLevels(it int) []int {
	var out []int
	for li := range n.Levels {
		if v := n.Levels[li].Trips[it]; v != expr.NoVar && !n.pinned(v) {
			out = append(out, li)
		}
	}
	return out
}

// PEsUsed returns the number of PEs a mapping occupies: the product of
// its trips at the spatial levels (entries below 1 count as 1).
func (n *Nest) PEsUsed(trips [][]int64) int64 {
	pes := int64(1)
	for li := range n.Levels {
		if n.Levels[li].Kind != Spatial || li >= len(trips) {
			continue
		}
		for _, it := range n.Levels[li].Active {
			if it < len(trips[li]) && trips[li][it] > 1 {
				pes *= trips[li][it]
			}
		}
	}
	return pes
}

// Package hierarchy exercises the generality the paper claims for
// Algorithm 1 — "an arbitrary number of tiling levels and arbitrary
// permutations at each level" — end to end: it models accelerators with
// N on-chip buffer levels (e.g. DRAM → shared SRAM → per-PE scratchpad →
// registers), evaluates concrete mappings exactly, and optimizes the
// dataflow with one geometric program per combination of per-level
// permutation classes.
//
// It runs on the engine the pipeline runs, at depth N: per-boundary
// traffic and footprint come from a model.EvalSession, integer tilings
// from loopnest.Ladder, and the trip-count constraints and starting
// point of each program from dataflow. What is its own is what depends
// on N buffers: the Config, the nest builder, the energy and delay
// formulas over N boundaries, and the search over combinations of
// permutation classes.
//
// The three-level memory of the paper's evaluation remains the job of
// internal/core (which also implements co-design and the Eyeriss
// studies); this package shows that nothing in the formulation is
// specific to two copy boundaries.
package hierarchy

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
)

// ErrBadConfig reports an invalid hierarchy description.
var ErrBadConfig = errors.New("hierarchy: invalid config")

// BufferSpec describes one on-chip buffer level.
type BufferSpec struct {
	Name   string
	Words  int64   // capacity in words (per instance)
	Energy float64 // pJ per word access
	BW     float64 // words per cycle (per instance)
}

// Config is an N-level memory hierarchy, innermost buffer first
// (Buffers[0] plays the register role: MAC operands are read from it).
// DRAM sits implicitly above the outermost buffer. Buffers with index
// ≤ SpatialAfter are private to each PE; the PE grid sits between
// buffer SpatialAfter and the next one out.
type Config struct {
	Buffers      []BufferSpec
	SpatialAfter int
	PEs          int64
	DRAMEnergy   float64 // pJ per word
	DRAMBW       float64 // words per cycle
	MACEnergy    float64 // pJ per MAC
}

// Validate checks structural sanity.
func (c *Config) Validate() error {
	if len(c.Buffers) < 1 {
		return fmt.Errorf("%w: need at least one buffer level", ErrBadConfig)
	}
	if c.SpatialAfter < 0 || c.SpatialAfter >= len(c.Buffers) {
		return fmt.Errorf("%w: SpatialAfter %d out of range", ErrBadConfig, c.SpatialAfter)
	}
	if c.PEs < 1 {
		return fmt.Errorf("%w: PEs = %d", ErrBadConfig, c.PEs)
	}
	for _, b := range c.Buffers {
		if b.Words < 1 || b.Energy < 0 || b.BW <= 0 {
			return fmt.Errorf("%w: buffer %s", ErrBadConfig, b.Name)
		}
	}
	if c.DRAMBW <= 0 || c.DRAMEnergy < 0 {
		return fmt.Errorf("%w: DRAM parameters", ErrBadConfig)
	}
	return nil
}

// outerEnergy returns the per-word access energy of the memory feeding
// boundary b (the next level out, or DRAM beyond the last buffer).
func (c *Config) outerEnergy(b int) float64 {
	if b+1 < len(c.Buffers) {
		return c.Buffers[b+1].Energy
	}
	return c.DRAMEnergy
}

// BuildNest constructs the tiling nest for a problem on the hierarchy:
// one innermost level for the buffer-0 tile, one temporal copy level per
// buffer, and a spatial level between the per-PE and shared portions.
// Untiled kernel loops (r/s) are pinned at the innermost level, as in
// the standard nest.
func BuildNest(p *loopnest.Problem, c *Config) (*dataflow.Nest, error) {
	if err := c.Validate(); err != nil {
		return nil, err
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
	l0Active := append(append([]int(nil), tiled...), untiled...)
	l0Fixed := map[int]int64{}
	for _, it := range untiled {
		l0Fixed[it] = p.Iters[it].Extent
	}
	cfgs := []dataflow.LevelConfig{{
		Name: "t0", Kind: dataflow.Temporal, Active: l0Active, Fixed: l0Fixed,
	}}
	for b := range c.Buffers {
		cfgs = append(cfgs, dataflow.LevelConfig{
			Name:   fmt.Sprintf("c%d", b),
			Kind:   dataflow.Temporal,
			Copy:   true,
			Active: append([]int(nil), tiled...),
		})
		if b == c.SpatialAfter {
			cfgs = append(cfgs, dataflow.LevelConfig{
				Name:   "pe",
				Kind:   dataflow.Spatial,
				Active: append([]int(nil), tiled...),
			})
		}
	}
	return dataflow.NewNest(p, cfgs)
}

// CopyLevels returns the nest level index of each copy level, innermost
// boundary first.
func CopyLevels(n *dataflow.Nest) []int {
	var out []int
	for li := range n.Levels {
		if n.Levels[li].Kind == dataflow.Temporal && n.Levels[li].Copy {
			out = append(out, li)
		}
	}
	return out
}

// Report is the evaluation result of a mapping on a hierarchy.
type Report struct {
	Ops          int64
	Energy       float64
	EnergyPerMAC float64
	Cycles       float64
	IPC          float64
	PEsUsed      int64
	// Traffic[b] is the word volume across boundary b (buffer b ↔ the
	// memory above it), read-write tensors doubled.
	Traffic []float64
	// Footprint[b] is the exact buffer-b requirement.
	Footprint  []float64
	Violations []string
}

// Valid reports whether all capacity constraints held.
func (r *Report) Valid() bool { return len(r.Violations) == 0 }

// Evaluate computes the exact report of a mapping (per-level trips and
// copy-level permutations as in model.Mapping) on the hierarchy.
func Evaluate(c *Config, n *dataflow.Nest, trips [][]int64, perms [][]int) (*Report, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s, err := model.NewEvaluator(n).Session(perms)
	if err != nil {
		return nil, err
	}
	return evaluate(c, n, s, trips)
}

// evaluate reports trips under the permutation choice of s, a session
// over nest n: the boundary sums come from the session's factor memo,
// so a stream of mappings of one choice runs Algorithm 1 once.
func evaluate(c *Config, n *dataflow.Nest, s *model.EvalSession, trips [][]int64) (*Report, error) {
	traffic, footprint, err := s.Sums(trips)
	if err != nil {
		return nil, err
	}
	nb := len(c.Buffers)
	if len(traffic) != nb {
		return nil, fmt.Errorf("%w: nest has %d boundaries, hierarchy %d", ErrBadConfig, len(traffic), nb)
	}
	r := &Report{
		Ops:       n.Prob.Ops(),
		Traffic:   slices.Clone(traffic),
		Footprint: slices.Clone(footprint),
		PEsUsed:   n.PEsUsed(trips),
	}
	ops := float64(r.Ops)
	for b := 0; b < nb; b++ {
		if r.Footprint[b] > float64(c.Buffers[b].Words) {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"%s footprint %.0f > %d", c.Buffers[b].Name, r.Footprint[b], c.Buffers[b].Words))
		}
	}
	if r.PEsUsed > c.PEs {
		r.Violations = append(r.Violations, fmt.Sprintf("PEs used %d > %d", r.PEsUsed, c.PEs))
	}

	// Energy: MAC + innermost-buffer operand accesses, plus per-boundary
	// inner-write + outer-read costs (the Eq. 3 pattern generalized).
	r.Energy = (4*c.Buffers[0].Energy + c.MACEnergy) * ops
	for b := 0; b < nb; b++ {
		r.Energy += (c.Buffers[b].Energy + c.outerEnergy(b)) * r.Traffic[b]
	}
	r.EnergyPerMAC = r.Energy / ops

	// Delay: max over compute and each memory's port throughput, matching
	// the paper's coarse model (Section V.B): the innermost buffer's port
	// carries the 4 operand accesses per MAC; memory m > 0 serves
	// boundary m (fills) and boundary m−1 (drains); DRAM serves the
	// outermost boundary. Per-PE memories share the load across PEs.
	pes := float64(r.PEsUsed)
	cycles := ops / pes
	for m := 0; m <= nb; m++ {
		accesses := 0.0
		if m > 0 && m < nb {
			accesses += r.Traffic[m]
		}
		if m > 0 {
			accesses += r.Traffic[m-1]
		}
		var bw float64
		perPE := false
		if m < nb {
			bw = c.Buffers[m].BW
			perPE = m <= c.SpatialAfter
			if m == 0 {
				accesses = 4 * ops
			}
		} else {
			bw = c.DRAMBW
		}
		t := accesses / bw
		if perPE {
			t /= pes
		}
		cycles = math.Max(cycles, t)
	}
	r.Cycles = cycles
	r.IPC = ops / cycles
	return r, nil
}

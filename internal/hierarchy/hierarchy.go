// Package hierarchy exercises the generality the paper claims for
// Algorithm 1 — "an arbitrary number of tiling levels and arbitrary
// permutations at each level" — end to end: it models accelerators with
// N on-chip buffer levels (e.g. DRAM → shared SRAM → per-PE scratchpad →
// registers), evaluates concrete mappings exactly, and optimizes the
// dataflow with one geometric program per tuple of per-level
// permutation classes.
//
// It runs on the engine the pipeline runs, at depth N: the nest comes
// from dataflow.BuildNest, the class search (per-class volumes, warm
// starts, bound pruning and the tie band) from pipeline.SearchClasses,
// per-boundary traffic and footprint from a model.EvalSession, integer
// tilings from loopnest.Ladder, and the trip-count constraints and
// starting point of each program from dataflow. What is its own is
// what depends on N buffers: the Config, the N-boundary energy program
// the search solves, the energy and delay evaluation over N
// boundaries, and the integerization of the search's tie band.
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

// clone returns a copy of r that shares no slice with it.
func (r *Report) clone() *Report {
	c := *r
	c.Traffic = slices.Clone(r.Traffic)
	c.Footprint = slices.Clone(r.Footprint)
	c.Violations = slices.Clone(r.Violations)
	return &c
}

// Quick-mode violation placeholders (see evaluate).
var (
	violFootprintQuick = "footprint over capacity"
	violPEQuick        = "PEs used over capacity"
)

// Evaluate computes the exact report of a mapping (per-level trips and
// copy-level permutations as in model.Mapping) on the hierarchy, whose
// nest is dataflow.BuildNest(p, len(c.Buffers), c.SpatialAfter, rs).
func Evaluate(c *Config, n *dataflow.Nest, trips [][]int64, perms [][]int) (*Report, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s, err := model.NewEvaluator(n).Session(perms)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := evaluate(c, n, s, trips, r, false); err != nil {
		return nil, err
	}
	return r, nil
}

// evaluate writes into r the report of trips under the permutation
// choice of s, a session over nest n: the boundary sums come from the
// session's factor memo, so a stream of mappings of one choice runs
// Algorithm 1 once. It reuses r's slices, so a search that streams
// mappings through one Report allocates nothing per mapping; quick
// replaces the formatted violation messages with static placeholders,
// as model.EvalSession.Quick does, for searches that only filter on
// validity.
func evaluate(c *Config, n *dataflow.Nest, s *model.EvalSession, trips [][]int64, r *Report, quick bool) error {
	traffic, footprint, err := s.Sums(trips)
	if err != nil {
		return err
	}
	nb := len(c.Buffers)
	if len(traffic) != nb {
		return fmt.Errorf("%w: nest has %d boundaries, hierarchy %d", ErrBadConfig, len(traffic), nb)
	}
	r.Ops = n.Prob.Ops()
	r.Traffic = append(r.Traffic[:0], traffic...)
	r.Footprint = append(r.Footprint[:0], footprint...)
	r.PEsUsed = n.PEsUsed(trips)
	r.Violations = r.Violations[:0]
	ops := float64(r.Ops)
	for b := 0; b < nb; b++ {
		if r.Footprint[b] > float64(c.Buffers[b].Words) {
			v := violFootprintQuick
			if !quick {
				v = fmt.Sprintf("%s footprint %.0f > %d", c.Buffers[b].Name, r.Footprint[b], c.Buffers[b].Words)
			}
			r.Violations = append(r.Violations, v)
		}
	}
	if r.PEsUsed > c.PEs {
		v := violPEQuick
		if !quick {
			v = fmt.Sprintf("PEs used %d > %d", r.PEsUsed, c.PEs)
		}
		r.Violations = append(r.Violations, v)
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
	return nil
}

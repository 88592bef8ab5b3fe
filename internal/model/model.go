// Package model is the reproduction's substitute for the Timeloop
// accelerator model: it evaluates a concrete integer mapping (per-level
// trip counts plus per-level loop permutations) of a loop-nest problem on
// an architecture, producing exact per-boundary access counts (with
// spatial multicast), an energy breakdown per the paper's Eq. 3, a delay
// estimate (maximum over component throughputs, Section V.B), and
// capacity/utilization checks.
//
// Exactness note: unlike the geometric-program relaxation, evaluation
// here uses the exact footprint/volume expressions including the negative
// constants of convolution extents.
package model

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/expr"
)

// ErrBadMapping reports a structurally invalid mapping.
var ErrBadMapping = errors.New("model: invalid mapping")

// Criterion selects an optimization objective for searches and
// comparisons over reports.
type Criterion int

const (
	// MinEnergy minimizes total pJ.
	MinEnergy Criterion = iota
	// MinDelay minimizes total cycles.
	MinDelay
	// MinEDP minimizes the energy-delay product (pJ·cycles) — the
	// objective the paper mentions as expressible but does not evaluate.
	MinEDP
)

func (c Criterion) String() string {
	switch c {
	case MinDelay:
		return "delay"
	case MinEDP:
		return "edp"
	default:
		return "energy"
	}
}

// ParseCriterion returns the criterion that String names: "energy",
// "delay" or "edp".
func ParseCriterion(name string) (Criterion, error) {
	for _, c := range []Criterion{MinEnergy, MinDelay, MinEDP} {
		if name == c.String() {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown criterion %q (energy | delay | edp)", name)
}

// Score extracts the criterion's objective value from a report.
func Score(c Criterion, r *Report) float64 {
	switch c {
	case MinDelay:
		return r.Cycles
	case MinEDP:
		return r.Energy * r.Cycles
	default:
		return r.Energy
	}
}

// Mapping is a concrete design point: integer trip counts per level per
// iterator and iterator orders for the temporal copy levels.
type Mapping struct {
	// Perms[l] is the outer-to-inner iterator order of copy level l
	// (nil for non-copy levels), as accepted by Nest.ComputeVolumes.
	Perms [][]int
	// Trips[l][it] is the integer trip count of iterator it at level l
	// (0 entries mean 1).
	Trips [][]int64
}

// Clone returns a deep copy of the mapping.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{
		Perms: make([][]int, len(m.Perms)),
		Trips: make([][]int64, len(m.Trips)),
	}
	for i, p := range m.Perms {
		if p != nil {
			c.Perms[i] = append([]int(nil), p...)
		}
	}
	for i, t := range m.Trips {
		c.Trips[i] = append([]int64(nil), t...)
	}
	return c
}

// EnergyBreakdown itemizes the Eq. 3 energy components (pJ). With
// intermediate buffers (arch.Arch.Mid), "S↔R" is the boundary into the
// registers and "D↔S" the one into the SRAM.
type EnergyBreakdown struct {
	Compute float64 // (4ε_R + ε_op)·N_ops
	RegFile float64 // ε_R · S↔R traffic
	SRAM    float64 // ε_S · (traffic into and out of the SRAM)
	DRAM    float64 // ε_D · D↔S traffic
	NoC     float64 // ε_hop · √P · traffic across the PE grid (optional extension)
	// Mid[i] is ε·(traffic into and out of) intermediate buffer i.
	Mid []float64 `json:",omitempty"`
}

// Total sums the components.
func (b EnergyBreakdown) Total() float64 {
	t := b.Compute + b.RegFile + b.SRAM + b.DRAM + b.NoC
	for _, e := range b.Mid {
		t += e
	}
	return t
}

// Report is the evaluation result for one mapping on one architecture.
type Report struct {
	Ops          int64
	Energy       float64 // pJ
	EnergyPerMAC float64 // pJ/MAC
	Breakdown    EnergyBreakdown

	Cycles float64
	IPC    float64 // MACs per cycle

	PEsUsed     int64
	Utilization float64 // PEsUsed / PEs

	// TrafficSR and TrafficDS are total words moved across the
	// SRAM↔register and DRAM↔SRAM boundaries (read-write tensors
	// counted twice per the paper); with intermediate buffers, across
	// the boundaries into the registers and into the SRAM.
	TrafficSR float64
	TrafficDS float64
	// RegFootprint and SRAMFootprint are the exact buffer requirements.
	RegFootprint  float64
	SRAMFootprint float64
	// Mid[i] is intermediate buffer i's traffic and footprint.
	Mid []BufferUse `json:",omitempty"`

	// Violations lists capacity/shape constraint failures; empty means
	// the mapping is valid for the architecture.
	Violations []string
}

// BufferUse is an intermediate buffer's share of a Report.
type BufferUse struct {
	// Traffic is the words moved into the buffer from the one above it.
	Traffic float64
	// Footprint is the exact requirement, per instance.
	Footprint float64
}

// Valid reports whether the mapping satisfied all constraints.
func (r *Report) Valid() bool { return len(r.Violations) == 0 }

// Usable reports whether r is a report of some evaluation: every
// problem has at least one operation, so a report decoded from a
// damaged cache record as null or {} is not (see cache.Usable).
func (r *Report) Usable() bool { return r != nil && r.Ops > 0 }

// Clone returns a deep copy of r. Session-owned reports are only valid
// until the session's next Evaluate call; keep a Clone instead.
func (r *Report) Clone() *Report {
	c := *r
	if r.Violations != nil {
		c.Violations = append([]string(nil), r.Violations...)
	}
	c.Mid = slices.Clone(r.Mid)
	c.Breakdown.Mid = slices.Clone(r.Breakdown.Mid)
	return &c
}

// Evaluator evaluates mappings of one nest, caching per permutation
// choice the symbolic volumes compiled into a factor table (they are
// trip-value independent). It is safe for concurrent use.
type Evaluator struct {
	Nest *dataflow.Nest

	// ops is the problem's operation count and spatial the trip
	// variables of the spatial levels, whose product is the PEs a
	// mapping uses. free[it] are iterator it's free levels
	// (Nest.FreeLevels) and pinned[it] the product of its pinned trips.
	ops     int64
	spatial []expr.VarID
	free    [][]int
	pinned  []int64

	mu    sync.Mutex
	cache map[string]*factorTable // guarded by mu
}

// NewEvaluator wraps a nest.
func NewEvaluator(n *dataflow.Nest) *Evaluator {
	e := &Evaluator{Nest: n, ops: n.Prob.Ops(), cache: map[string]*factorTable{}}
	for li := range n.Levels {
		if n.Levels[li].Kind == dataflow.Spatial {
			for _, it := range n.Levels[li].Active {
				e.spatial = append(e.spatial, n.Levels[li].Trips[it])
			}
		}
	}
	e.free = make([][]int, len(n.Prob.Iters))
	e.pinned = make([]int64, len(n.Prob.Iters))
	for it := range n.Prob.Iters {
		e.free[it] = n.FreeLevels(it)
		e.pinned[it] = 1
	}
	for _, pin := range n.Pins {
		e.pinned[n.IterOfVar(pin.Var)] *= int64(pin.Value)
	}
	return e
}

// appendPermKey appends the cache key of a permutation choice to dst:
// each level's iterators, comma-terminated, then ';'.
func appendPermKey(dst []byte, perms [][]int) []byte {
	for _, p := range perms {
		for _, it := range p {
			dst = strconv.AppendInt(dst, int64(it), 10)
			dst = append(dst, ',')
		}
		dst = append(dst, ';')
	}
	return dst
}

// table returns the (possibly cached) factor table of a permutation
// choice, running Algorithm 1 and compiling its volumes on a miss.
func (e *Evaluator) table(perms [][]int) (*factorTable, error) {
	var buf [64]byte
	key := appendPermKey(buf[:0], perms)
	e.mu.Lock()
	t, ok := e.cache[string(key)]
	e.mu.Unlock()
	if ok {
		return t, nil
	}
	v, err := e.Nest.ComputeVolumes(perms)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMapping, err)
	}
	t = newFactorTable(v, e.Nest.Vars.Len())
	e.mu.Lock()
	e.cache[string(key)] = t
	e.mu.Unlock()
	return t, nil
}

// Evaluate computes the report for a mapping on the architecture. The
// nest must have one copy boundary per buffer of the architecture:
// registers, each intermediate buffer (arch.Arch.Mid), and SRAM.
// Mappings that violate capacities still produce a full report, with
// Violations populated, so searches can reject them.
//
// Each call is a fresh session: every factor is evaluated.
func (e *Evaluator) Evaluate(a *arch.Arch, m *Mapping) (*Report, error) {
	s, err := e.Session(m.Perms)
	if err != nil {
		return nil, err
	}
	return s.Evaluate(a, m)
}

// EvalSession evaluates many mappings that share one permutation choice
// — the shape of the integerization search, which streams thousands of
// trip-count variants of a single relaxed solution. The session pins the
// permutation's factor table once and reuses its buffers and Report
// across calls, so steady-state evaluation does not allocate.
//
// The session memoizes factor values. It keeps the assignment of the
// trips it last accepted and the value of every traffic and footprint
// factor under it. Trips arrive by two entries: the generic one
// (Evaluate, Sums) sets every iterator from a whole mapping, checked by
// CheckTrips; the delta entry (SetIter) sets one iterator and checks
// only it. Either queues the factors that read a variable whose value
// changed. Pricing (Price, Evaluate) first flushes: it re-evaluates the
// queued factors (all of them after the first mapping), forms each
// product and each sum over tensors in the order of
// dataflow.Volumes.EvalTraffic and EvalFootprint, and keeps the sums
// until a trip changes, so pricing one tiling under many architectures
// sums it once. A factor is a pure function of the variables it reads,
// so every Report field is bit-identical to a fresh evaluation. Trips
// rejected with an error leave the memo as it was.
//
// The returned *Report is owned by the session and overwritten by the
// next Price or Evaluate call; callers that keep one must Clone it. A session is
// single-goroutine: it is not safe for concurrent use (create one per
// goroutine; they share the evaluator's locked table cache).
type EvalSession struct {
	e   *Evaluator
	tab *factorTable
	// x is the assignment of the last accepted trips, nil before the
	// first. val[f] is the value of factor f under x once flushed: stale
	// lists the factors queued for re-evaluation (dirty marks them), or
	// evalAll says that none has a value yet. next is load's scratch.
	x, next, val []float64
	dirty        []bool
	stale        []int32
	evalAll      bool
	// summed says that traffic[b] and footprint[b], the sums of
	// boundary b (see Sums), and pes, the PEs used, are those of x.
	summed             bool
	traffic, footprint []float64
	pes                int64
	rep                Report
	// viols backs rep.Violations, kept across valid reports; mid and
	// midEnergy back rep.Mid and rep.Breakdown.Mid.
	viols     []string
	mid       []BufferUse
	midEnergy []float64
	// Quick elides the formatted violation messages: an invalid mapping
	// gets a static placeholder instead. Validity (Report.Valid) is
	// unchanged; searches that only filter on it avoid the fmt cost.
	Quick bool
}

// Quick-mode violation placeholders (see EvalSession.Quick).
var (
	violRegQuick  = "register footprint over capacity"
	violMidQuick  = "buffer footprint over capacity"
	violSRAMQuick = "SRAM footprint over capacity"
	violPEQuick   = "PEs used over capacity"
)

// Session pins the factor table of one permutation choice, building (or
// fetching from the evaluator's cache) it once.
func (e *Evaluator) Session(perms [][]int) (*EvalSession, error) {
	t, err := e.table(perms)
	if err != nil {
		return nil, err
	}
	return &EvalSession{e: e, tab: t}, nil
}

// Sums moves the session to a mapping's trips and returns the exact
// traffic and footprint of every memory boundary of the nest, innermost
// first, at any depth: each bit-identical to dataflow.Volumes'
// EvalTraffic and EvalFootprint. The slices are owned by the session
// and overwritten by its next call. Trips that CheckTrips rejects
// return an error and leave the memo as it was.
func (s *EvalSession) Sums(trips [][]int64) (traffic, footprint []float64, err error) {
	if err := s.e.Nest.CheckTrips(trips); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadMapping, err)
	}
	s.load(trips)
	s.flush()
	return s.traffic, s.footprint, nil
}

// Evaluate computes the report for a mapping whose Perms match the
// session's: the generic entry, which sets every iterator from m and
// prices the result. See Evaluator.Evaluate for semantics and
// EvalSession for the memo contract and the ownership rules of the
// returned Report.
func (s *EvalSession) Evaluate(a *arch.Arch, m *Mapping) (*Report, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if err := s.fits(a); err != nil {
		return nil, err
	}
	if err := s.e.Nest.CheckTrips(m.Trips); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMapping, err)
	}
	s.load(m.Trips)
	return s.Price(a)
}

// fits reports an architecture whose buffers do not match the nest's
// memory boundaries.
func (s *EvalSession) fits(a *arch.Arch) error {
	if nb := len(s.tab.traffic); nb != 2+len(a.Mid) {
		return fmt.Errorf("%w: %d buffers, nest has %d memory boundaries", ErrBadMapping, 2+len(a.Mid), nb)
	}
	return nil
}

// ComputeEnergy is Breakdown.Compute of ops operations on a: the
// register reads and write and the MAC of each, (4·ε_R + ε_op)·ops.
// Every other term of a report's energy is non-negative, so it is a
// lower bound on Report.Energy.
func ComputeEnergy(a *arch.Arch, ops float64) float64 {
	return (4*a.RegEnergy() + a.Tech.EnergyMAC) * ops
}

// Price returns the report of the session's trips on a, which must have
// passed arch.Validate: it flushes the memo, then charges the
// per-boundary sums to the architecture's buffers. Pricing the same
// trips under several architectures re-evaluates and sums nothing. The
// session must hold a mapping (Evaluate, Sums or SetIter).
func (s *EvalSession) Price(a *arch.Arch) (*Report, error) {
	if s.x == nil {
		return nil, fmt.Errorf("%w: no mapping to price", ErrBadMapping)
	}
	if err := s.fits(a); err != nil {
		return nil, err
	}
	s.flush()
	traffic, footprint := s.traffic, s.footprint
	last := len(traffic) - 1

	viols := s.viols[:0]
	r := &s.rep
	*r = Report{Ops: s.e.ops}
	r.TrafficSR, r.TrafficDS = traffic[0], traffic[last]
	r.RegFootprint, r.SRAMFootprint = footprint[0], footprint[last]
	r.PEsUsed = s.pes
	r.Utilization = float64(r.PEsUsed) / float64(a.PEs)

	// Energy per Eq. 3 (plus the optional NoC extension): each buffer
	// is charged for the traffic into it and out of it.
	epsR := a.RegEnergy()
	epsS := a.SRAMEnergy()
	epsD := a.Tech.EnergyDRAM
	ops := float64(r.Ops)
	r.Breakdown = EnergyBreakdown{
		Compute: ComputeEnergy(a, ops),
		RegFile: epsR * r.TrafficSR,
		SRAM:    epsS * (traffic[last-1] + r.TrafficDS),
		DRAM:    epsD * r.TrafficDS,
	}
	if a.Tech.EnergyNoCHop > 0 {
		// The mesh carries the traffic across the PE grid.
		r.Breakdown.NoC = a.Tech.EnergyNoCHop * math.Sqrt(float64(r.PEsUsed)) * traffic[a.SpatialAfter()]
	}
	if len(a.Mid) > 0 {
		s.mid, s.midEnergy = s.mid[:0], s.midEnergy[:0]
		for i, b := range a.Mid {
			s.mid = append(s.mid, BufferUse{Traffic: traffic[i+1], Footprint: footprint[i+1]})
			s.midEnergy = append(s.midEnergy, b.Energy*(traffic[i]+traffic[i+1]))
		}
		r.Mid, r.Breakdown.Mid = s.mid, s.midEnergy
	}
	r.Energy = r.Breakdown.Total()
	r.EnergyPerMAC = r.Energy / ops

	// Delay: max over component throughputs (Section V.B). Each
	// buffer's port carries the traffic into and out of it; a per-PE
	// buffer's load is shared by the PEs.
	pes := float64(r.PEsUsed)
	compute := ops / pes
	regPort := 4 * ops / (pes * a.Tech.BWReg)
	sram := (traffic[last-1] + r.TrafficDS) / a.Tech.BWSRAM
	dram := r.TrafficDS / a.Tech.BWDRAM
	r.Cycles = math.Max(math.Max(compute, regPort), math.Max(sram, dram))
	for i, b := range a.Mid {
		port := (traffic[i] + traffic[i+1]) / b.BW
		if b.PerPE {
			port /= pes
		}
		r.Cycles = math.Max(r.Cycles, port)
	}
	r.IPC = ops / r.Cycles

	// Capacity constraints.
	if r.RegFootprint > float64(a.Regs) {
		if s.Quick {
			viols = append(viols, violRegQuick)
		} else {
			viols = append(viols, fmt.Sprintf("register footprint %.0f > %d", r.RegFootprint, a.Regs))
		}
	}
	for i, b := range a.Mid {
		if footprint[i+1] > float64(b.Words) {
			if s.Quick {
				viols = append(viols, violMidQuick)
			} else {
				viols = append(viols, fmt.Sprintf("%s footprint %.0f > %d", b.Name, footprint[i+1], b.Words))
			}
		}
	}
	if r.SRAMFootprint > float64(a.SRAM) {
		if s.Quick {
			viols = append(viols, violSRAMQuick)
		} else {
			viols = append(viols, fmt.Sprintf("SRAM footprint %.0f > %d", r.SRAMFootprint, a.SRAM))
		}
	}
	if r.PEsUsed > a.PEs {
		if s.Quick {
			viols = append(viols, violPEQuick)
		} else {
			viols = append(viols, fmt.Sprintf("PEs used %d > %d", r.PEsUsed, a.PEs))
		}
	}
	s.viols = viols
	if len(viols) > 0 {
		r.Violations = viols
	}
	return r, nil
}

// UniformMapping builds a trivial valid mapping that executes everything
// sequentially on one PE with unit tiles everywhere except level 0 trips
// forced by pins. It is the fallback/sanity mapping: the full extent of
// every free iterator is placed at the outermost (SRAM-tile) level.
func UniformMapping(n *dataflow.Nest) *Mapping {
	nl := len(n.Levels)
	ni := len(n.Prob.Iters)
	m := &Mapping{Perms: make([][]int, nl), Trips: make([][]int64, nl)}
	for li := 0; li < nl; li++ {
		m.Trips[li] = make([]int64, ni)
		for it := range m.Trips[li] {
			m.Trips[li][it] = 1
		}
	}
	// Pins (untiled full loops at their placement level).
	pinnedTotal := make([]int64, ni)
	for it := range pinnedTotal {
		pinnedTotal[it] = 1
	}
	for _, pin := range n.Pins {
		it := n.IterOfVar(pin.Var)
		li := n.LevelOfVar(pin.Var)
		m.Trips[li][it] = int64(pin.Value)
		pinnedTotal[it] *= int64(pin.Value)
	}
	// Remaining extent at the outermost level where the iterator is active.
	for it, iter := range n.Prob.Iters {
		rest := iter.Extent / pinnedTotal[it]
		if rest <= 1 {
			continue
		}
		for li := nl - 1; li >= 0; li-- {
			if n.Levels[li].Trips[it] != expr.NoVar {
				m.Trips[li][it] *= rest
				break
			}
		}
	}
	// Copy-level perms: active iterators in declaration order.
	for li := 0; li < nl; li++ {
		lvl := &n.Levels[li]
		if lvl.Kind == dataflow.Temporal && lvl.Copy {
			perm := append([]int(nil), lvl.Active...)
			sort.Ints(perm)
			m.Perms[li] = perm
		}
	}
	return m
}

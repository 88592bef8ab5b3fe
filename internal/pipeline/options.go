package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/dataflow"
	"repro/internal/model"
	"repro/internal/obs"
)

// ErrNoDesign is returned when no feasible design point was found.
var ErrNoDesign = errors.New("core: no feasible design point")

// ErrDeepCoDesign is returned for a co-design run whose architecture
// has intermediate buffers (arch.Arch.Mid): co-design has area and
// energy models for the registers and the SRAM only.
var ErrDeepCoDesign = errors.New("core: co-design of intermediate buffers is not supported")

// Mode selects between dataflow-only optimization on a fixed architecture
// and full architecture-dataflow co-design.
type Mode int

const (
	// FixedArch optimizes the dataflow for a given architecture (the
	// paper's Figs. 4 and 7 setting).
	FixedArch Mode = iota
	// CoDesign additionally optimizes P, R, and S under an area budget
	// (Figs. 5, 6, and 8).
	CoDesign
)

// String returns the mode's name, "fixedarch" or "codesign". It is not
// the CLI's -mode spelling ("fixed"): the name is hashed into solve
// signatures and written to optimize_start events, so it must not change.
func (m Mode) String() string {
	if m == CoDesign {
		return "codesign"
	}
	return "fixedarch"
}

// ParseMode returns the mode of a command-line or request spelling:
// "fixed" or "codesign".
func ParseMode(name string) (Mode, error) {
	switch name {
	case "fixed":
		return FixedArch, nil
	case "codesign":
		return CoDesign, nil
	}
	return 0, fmt.Errorf("unknown mode %q (fixed | codesign)", name)
}

// The search constants of the integerization (Section IV of the paper:
// N powers of two per capacity, the top-k relaxed class tuples) and of
// the relaxation. Only the divisor width n is a run option (NDiv).
const (
	// nPow2 is the paper's N: power-of-two candidates per capacity
	// variable in co-design.
	nPow2 = 2
	// topClasses is how many best GP class tuples are integerized, at
	// least: ties of the last of them within solverTol join them (see
	// topBand).
	topClasses = 3
	// maxCandidates caps the leaves one integerization search
	// evaluates. Leaves the PE cap or the delay bound prunes are not
	// evaluated and do not count toward it. Evaluations are
	// microseconds each; a generous cap lets the width-3 delay ladder
	// cover its full cross product.
	maxCandidates = 1 << 20
	// solverTol is the interior-point method's relative duality gap.
	// Integerization only needs ~2 significant digits from the
	// relaxation; a loose gap keeps thousands of solves fast.
	solverTol = 1e-6
)

// Options configures an Optimize run. Zero values select defaults.
type Options struct {
	// Criterion is energy or delay minimization.
	Criterion model.Criterion
	// Mode selects fixed-architecture dataflow optimization or co-design.
	Mode Mode
	// Arch is the target architecture (FixedArch) or, in CoDesign mode,
	// supplies the technology constants. Defaults to Eyeriss.
	Arch *arch.Arch
	// AreaBudget bounds the chip area in CoDesign mode. Defaults to the
	// Eyeriss-equal area of the paper's evaluation.
	AreaBudget float64
	// NDiv is the paper's n: divisor candidates per tile variable
	// (default 2 for energy, 3 for delay and EDP).
	NDiv int
	// Parallel sizes the run's bounded scheduler: the maximum number of
	// leaf compute jobs (GP solves, integerization searches) in flight
	// at once (default NumCPU). When a scheduler is attached to the
	// context (ContextWithScheduler), that scheduler's size wins, so
	// batch drivers submitting many layers concurrently share one bound
	// instead of multiplying it.
	Parallel int
	// DisablePruning turns off hoist-prefix/symmetry class dedup and
	// enumerates raw permutations (for the pruning ablation).
	DisablePruning bool
	// DisableBoundPruning turns off the objective-lower-bound class
	// pruning in the solve stage: every pair GP is formulated and solved
	// even when a cheap bound proves it can never enter the integerized
	// top set. Results are identical either way (the bound is
	// conservative and the prune threshold is derived only from
	// deterministically-ordered solves); this is an escape hatch and
	// ablation knob, so it is excluded from the solve signature.
	DisableBoundPruning bool
	// DisableWarmStart makes every pair GP start from the cold analytic
	// hint instead of chaining the previous solution of its L1 group.
	// Warm starts only change the interior-point iteration count, not
	// the optimum; like DisableBoundPruning this is an escape hatch
	// excluded from the solve signature.
	DisableWarmStart bool
	// Cache, when non-nil, memoizes whole Optimize results by content
	// signature (see core.SolveSignature): a repeated (problem shape ×
	// architecture × options) request returns the cached design point
	// without formulating or solving anything, and concurrent requests
	// for the same signature collapse onto a single solve. The cache is
	// consulted by the core facade, not by the pipeline stages. A cache
	// attached to the context via core.ContextWithCache is used when
	// this field is nil.
	Cache *cache.Cache[*Result]
}

// WithDefaults resolves zero option values to their defaults. The core
// facade applies it before both executing the pipeline and computing a
// solve signature, so an explicit default and a zero value behave (and
// hash) identically.
func (o Options) WithDefaults() Options {
	if o.Arch == nil {
		e := arch.Eyeriss()
		o.Arch = &e
	}
	if o.AreaBudget == 0 {
		o.AreaBudget = arch.EyerissAreaBudget()
	}
	if o.NDiv == 0 {
		o.NDiv = 2
		if o.Criterion != model.MinEnergy {
			// Delay (and EDP) quality hinges on hitting the exact
			// PE-maximizing divisor combinations, which a width-2 ladder
			// around the relaxed solution can miss.
			o.NDiv = 3
		}
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.NumCPU()
	}
	return o
}

// SignatureParams lists the result-affecting options and search
// constants under the names and in the order the solve signature
// (core.SolveSignature) hashes them; o must have defaults applied.
// Signatures name the disk-cache records, so the list must not move:
// the constants keep the names of the options they replaced,
// "min_utilization" hashes the 0 of the retired utilization filter, and
// the six solver parameters besides the tolerance hash 0, as they did
// when they were unset options.
func (o Options) SignatureParams() []cache.Param {
	return []cache.Param{
		cache.ParamString("mode", o.Mode.String()),
		cache.ParamFloat("area_budget", o.AreaBudget),
		cache.ParamInt("ndiv", int64(o.NDiv)),
		cache.ParamInt("npow2", nPow2),
		cache.ParamFloat("min_utilization", 0),
		cache.ParamInt("max_candidates", maxCandidates),
		cache.ParamInt("top_classes", topClasses),
		cache.ParamBool("disable_pruning", o.DisablePruning),
		cache.ParamFloat("solver.tol", solverTol),
		cache.ParamFloat("solver.newton_tol", 0),
		cache.ParamFloat("solver.mu", 0),
		cache.ParamFloat("solver.t0", 0),
		cache.ParamInt("solver.max_newton", 0),
		cache.ParamInt("solver.max_centering", 0),
		cache.ParamFloat("solver.box", 0),
	}
}

// DesignPoint is one complete optimized design.
type DesignPoint struct {
	Arch    arch.Arch
	Mapping *model.Mapping
	Report  *model.Report
	// PermL1 and PermSRAM are the loop orders (outer-to-inner) of the
	// innermost and the outermost copy level; Mapping.Perms has every
	// level's.
	PermL1, PermSRAM []int
	// NestOptions records the tiling structure the mapping was built for
	// (notably the kernel-loop placement); required to re-evaluate or
	// export the mapping.
	NestOptions dataflow.StandardOptions
	// GPObjective is the relaxed optimum of the geometric program the
	// point was integerized from.
	GPObjective float64
}

// Stats summarizes the search effort. PairsSolved, Candidates, and the
// related counters always describe the search that produced the
// returned design — even when that search happened in an earlier run
// and the result was served from a SolveCache. FreshSolves and
// FromCache describe what this invocation actually did, so cached runs
// never report a misleading "0 GPs solved" (nor pretend to have solved
// GPs they reused).
type Stats struct {
	// ClassesL1 and ClassesSRAM count the permutation classes of the
	// innermost and the outermost copy level, and ClassesMid those of
	// the copy levels between them, inner to outer (nil when the
	// architecture has no intermediate buffer). Their product is the
	// number of class tuples. ClassesMid is held by pointer so that
	// Stats stays comparable with ==.
	ClassesL1   int
	ClassesMid  *[]int `json:",omitempty"`
	ClassesSRAM int
	// PairsSolved is the total number of permutation-pair GPs behind
	// the returned design (deduplicated search effort).
	PairsSolved int
	Infeasible  int
	Suboptimal  int
	// Candidates counts the integer leaves evaluated; pruned leaves
	// are not counted.
	Candidates  int
	NewtonIters int
	// Pruned counts pair GPs skipped by the bound-based class pruning:
	// their objective lower bound already exceeded the running top-k
	// threshold, so they were never formulated in full or solved. Not
	// included in PairsSolved.
	Pruned int
	// CutOff counts pair GPs whose solve stopped early, once the solver
	// certified that their optimum cannot enter the tie band of the
	// running top-k threshold (solver.CutOff). Included in PairsSolved,
	// and their Newton iterations in NewtonIters.
	CutOff int
	// FreshSolves is the number of GPs this invocation solved itself:
	// equal to PairsSolved on a cache miss (or with caching off), 0
	// when the result came from the solve cache.
	FreshSolves int
	// FromCache marks a result served from a SolveCache. The Best
	// design point is shared with the cache — treat it as immutable.
	FromCache bool
}

// add accumulates the search effort of o into s, the class counts of
// the middle copy levels element by element.
func (s *Stats) add(o Stats) {
	s.ClassesL1 += o.ClassesL1
	if o.ClassesMid != nil {
		// A fresh slice: s may share its counts with another record.
		sum := make([]int, len(*o.ClassesMid))
		if s.ClassesMid != nil {
			copy(sum, *s.ClassesMid)
		}
		for i, n := range *o.ClassesMid {
			sum[i] += n
		}
		s.ClassesMid = &sum
	}
	s.ClassesSRAM += o.ClassesSRAM
	s.PairsSolved += o.PairsSolved
	s.Infeasible += o.Infeasible
	s.Suboptimal += o.Suboptimal
	s.Candidates += o.Candidates
	s.NewtonIters += o.NewtonIters
	s.Pruned += o.Pruned
	s.CutOff += o.CutOff
}

// observe derives the telemetry of one RS placement from its record:
// the core.* search-effort counters, and the class and solve counts on
// the placement's span.
func (s *Stats) observe(o *obs.Obs, span *obs.Span) {
	o.Counter("core.classes_l1").Add(int64(s.ClassesL1))
	o.Counter("core.classes_sram").Add(int64(s.ClassesSRAM))
	o.Counter("core.pairs_solved").Add(int64(s.PairsSolved))
	o.Counter("core.gp_infeasible").Add(int64(s.Infeasible))
	o.Counter("core.gp_suboptimal").Add(int64(s.Suboptimal))
	o.Counter("core.pairs_pruned").Add(int64(s.Pruned))
	o.Counter("core.pairs_cutoff").Add(int64(s.CutOff))
	o.Counter("core.int_candidates").Add(int64(s.Candidates))
	if span != nil {
		attrs := []obs.Attr{
			obs.Int("classes_l1", s.ClassesL1),
			obs.Int("classes_sram", s.ClassesSRAM),
			obs.Int("pairs_solved", s.PairsSolved),
		}
		if s.ClassesMid != nil {
			attrs = append(attrs, obs.Attr{Key: "classes_mid", Value: *s.ClassesMid})
		}
		span.Annotate(attrs...)
	}
}

// Result is the outcome of an Optimize run.
type Result struct {
	Best  *DesignPoint
	Stats Stats
	// Signature is the solve signature (core.SolveSignature) the core
	// facade used for this run, recorded on a cold solve and on a cache
	// hit alike; zero when the run needed none (no cache, no event
	// sink). It is not serialized: cache records are already named by
	// it.
	Signature cache.Signature `json:"-"`
}

// Usable reports whether r holds a complete design: a Result decoded
// from a damaged cache record may lack one, or hold a mapping the nest
// of its architecture cannot accept (see cache.Usable).
func (r *Result) Usable() bool {
	return r != nil && r.Best != nil && r.Best.Report != nil && shaped(r.Best.Mapping, &r.Best.Arch)
}

// shaped reports whether m has a perm slot and a trip row for each
// level of a's nest (see BuildNest: the register tile, one copy level
// per buffer and the PE grid), trip rows of one non-zero length, and no
// trip below 1.
func shaped(m *model.Mapping, a *arch.Arch) bool {
	levels := 2 + len(a.Mid) + 2
	if m == nil || len(m.Perms) != levels || len(m.Trips) != levels || len(m.Trips[0]) == 0 {
		return false
	}
	for _, row := range m.Trips {
		if len(row) != len(m.Trips[0]) || slices.Min(row) < 1 {
			return false
		}
	}
	return true
}

// Solved is one class tuple's relaxed optimum.
type Solved struct {
	// Perms is the tuple's permutation at every level of the nest, nil
	// at the levels that are not copy levels (see model.Mapping).
	Perms [][]int
	// X is the optimal point and Objective its value.
	X         []float64
	Objective float64
}

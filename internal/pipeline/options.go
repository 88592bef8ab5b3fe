package pipeline

import (
	"errors"
	"runtime"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/dataflow"
	"repro/internal/model"
	"repro/internal/solver"
)

// ErrNoDesign is returned when no feasible design point was found.
var ErrNoDesign = errors.New("core: no feasible design point")

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
	// (default 2).
	NDiv int
	// NPow2 is the paper's N: power-of-two candidates per capacity
	// variable (default 2).
	NPow2 int
	// MinUtilization filters fixed-arch integer candidates (default 0,
	// i.e. disabled; the paper mentions a threshold without a value).
	MinUtilization float64
	// MaxCandidates caps the leaves each integerization search
	// evaluates (default 1<<20). Leaves the PE cap or the delay bound
	// prunes are not evaluated and do not count toward it.
	MaxCandidates int
	// TopClasses is how many best GP class pairs are integerized
	// (default 3): at least k, plus ties within Solver.Tol of the k-th
	// relaxed optimum.
	TopClasses int
	// Parallel sizes the run's bounded scheduler: the maximum number of
	// leaf compute jobs (GP solves, integerization searches) in flight
	// at once (default NumCPU). When a scheduler is attached to the
	// context (ContextWithScheduler), that scheduler's size wins, so
	// batch drivers submitting many layers concurrently share one bound
	// instead of multiplying it.
	Parallel int
	// Nest customizes the tiling structure. Nest.RS is ignored when
	// RSPlacements is nil (the default), which tries both placements.
	Nest dataflow.StandardOptions
	// RSPlacements lists the placements of the untiled kernel loops to
	// try, keeping the best feasible design. Nil tries both the register
	// tile and the level-1 loops (layers with tiny register budgets are
	// only feasible with the latter); problems without untiled kernel
	// loops run once.
	RSPlacements []dataflow.RSPlacement
	// Solver tunes the interior-point method.
	Solver solver.Options
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
	if o.NPow2 == 0 {
		o.NPow2 = 2
	}
	if o.MaxCandidates == 0 {
		// Evaluations are microseconds each; a generous cap lets the
		// width-3 delay ladder cover its full cross product.
		o.MaxCandidates = 1 << 20
	}
	if o.TopClasses == 0 {
		o.TopClasses = 3
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.NumCPU()
	}
	if o.Solver.Tol == 0 {
		// The integerization step only needs ~2 significant digits from
		// the relaxation; a loose gap keeps thousands of solves fast.
		o.Solver.Tol = 1e-6
	}
	return o
}

// DesignPoint is one complete optimized design.
type DesignPoint struct {
	Arch    arch.Arch
	Mapping *model.Mapping
	Report  *model.Report
	// PermL1 and PermSRAM are the copy-level loop orders (outer-to-inner).
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
	ClassesL1, ClassesSRAM int
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
	// FreshSolves is the number of GPs this invocation solved itself:
	// equal to PairsSolved on a cache miss (or with caching off), 0
	// when the result came from the solve cache.
	FreshSolves int
	// FromCache marks a result served from a SolveCache. The Best
	// design point is shared with the cache — treat it as immutable.
	FromCache bool
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

// solvedPair records one GP solution.
type solvedPair struct {
	permL1, permSRAM []int
	x                []float64
	objective        float64
}

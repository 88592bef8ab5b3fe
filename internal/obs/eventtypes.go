package obs

// Event types of the thistle-events-v1 run-record stream, declared here
// — below every layer that emits — so the solver and core packages and
// the commands all name events through this one package. Package
// internal/obs/events (a CLI-layer concern) owns the machine-readable
// schema (events.Schema) describing the fields every type must carry;
// the tlvet eventfields analyzer enforces that schema at every Emit
// call site.
const (
	// EvRunStart opens every stream: run_id, tool, go_version, git_rev,
	// args, start_time.
	EvRunStart = "run_start"
	// EvRunEnd closes a stream with run totals.
	EvRunEnd = "run_end"
	// EvLayersTotal announces how many layers a sweep will optimize
	// (drives the -status-addr progress display).
	EvLayersTotal = "layers_total"
	// EvOptimizeStart marks one core.Optimize entry: problem, mode,
	// criterion, and the solve-cache content signature.
	EvOptimizeStart = "optimize_start"
	// EvOptimizeEnd carries the optimize outcome: the design point's
	// energy/cycles/EDP, search effort, and cache disposition. A batch
	// member served by cross-layer dedup (core.OptimizeLayers) gets a
	// row marked reused, naming its group owner in "from".
	EvOptimizeEnd = "optimize_end"
	// EvSolveEnd summarizes one GP barrier solve: status, Newton
	// iterations, centerings, objective, wall time, final duality gap,
	// and whether a phase-I feasibility search was needed.
	EvSolveEnd = "solve_end"
	// EvCentering is one barrier centering step: duality gap, Newton
	// count, line-search backtracks, convergence.
	EvCentering = "centering"
	// EvMapperEnd summarizes one randomized-mapper search.
	EvMapperEnd = "mapper_end"
	// EvModelValidate carries a tlmodel constraint-check outcome.
	EvModelValidate = "model_validate"
)

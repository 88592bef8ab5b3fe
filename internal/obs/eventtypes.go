package obs

// Event types of the thistle-events-v1 run-record stream, declared here
// — below every layer that emits — so the solver and core packages and
// the commands all name events through this one package. Each type has
// one payload struct below; its JSON tags are the stream's field names.
// A field without omitempty is required, one with omitempty optional
// (absent when zero). Package internal/obs/events derives the stream
// validator's schema from these structs, so the payload a producer
// builds and the fields a reader checks cannot disagree.
const (
	// EvRunStart opens every stream: run identity and environment.
	EvRunStart = "run_start"
	// EvRunEnd closes a stream with run totals.
	EvRunEnd = "run_end"
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

// Event is one typed run-event payload: a pointer to one of the structs
// below, which names its stream type.
type Event interface {
	EventType() string
}

// EventTypes is the registry of event payloads, one nil pointer per
// type, in the order reports list them.
var EventTypes = []Event{
	(*RunStart)(nil),
	(*OptimizeStart)(nil),
	(*OptimizeEnd)(nil),
	(*SolveEnd)(nil),
	(*Centering)(nil),
	(*MapperEnd)(nil),
	(*ModelValidate)(nil),
	(*RunEnd)(nil),
}

// RunStart opens a stream with the run's identity and environment.
type RunStart struct {
	RunID     string   `json:"run_id"`
	Tool      string   `json:"tool"`
	GoVersion string   `json:"go_version"`
	GitRev    string   `json:"git_rev,omitempty"`
	Args      []string `json:"args,omitempty"`
	StartTime string   `json:"start_time,omitempty"`
	RequestID string   `json:"request_id,omitempty"`
}

// RunEnd closes a stream with the manifest's totals.
type RunEnd struct {
	Layers      int     `json:"layers"`
	EnergyPJ    float64 `json:"energy_pj"`
	Cycles      float64 `json:"cycles"`
	EDP         float64 `json:"edp"`
	WallUS      int64   `json:"wall_us"`
	FreshSolves int64   `json:"fresh_solves,omitempty"`
}

// OptimizeStart marks one optimize entry.
type OptimizeStart struct {
	Problem   string `json:"problem"`
	Sig       string `json:"sig,omitempty"`
	Mode      string `json:"mode,omitempty"`
	Criterion string `json:"criterion,omitempty"`
}

// Figures are a design point's headline numbers, shared by the
// row-bearing events the manifest recorder folds into per-layer rows.
type Figures struct {
	EnergyPJ     float64 `json:"energy_pj,omitempty"`
	Cycles       float64 `json:"cycles,omitempty"`
	EDP          float64 `json:"edp,omitempty"`
	EnergyPerMAC float64 `json:"energy_per_mac,omitempty"`
	IPC          float64 `json:"ipc,omitempty"`
}

// OptimizeEnd is one optimize outcome: Status "ok" with the design's
// figures and search effort, or "error" with the error.
type OptimizeEnd struct {
	Problem string `json:"problem"`
	Status  string `json:"status"`
	Figures
	Sig         string `json:"sig,omitempty"`
	WallUS      int64  `json:"wall_us,omitempty"`
	Error       string `json:"error,omitempty"`
	PairsSolved int    `json:"pairs_solved,omitempty"`
	FreshSolves int    `json:"fresh_solves,omitempty"`
	Candidates  int    `json:"candidates,omitempty"`
	FromCache   bool   `json:"from_cache,omitempty"`
	Reused      bool   `json:"reused,omitempty"`
	From        string `json:"from,omitempty"`
}

// SolveEnd summarizes one GP barrier solve.
type SolveEnd struct {
	Status        string  `json:"status"`
	Newton        int     `json:"newton"`
	Centerings    int     `json:"centerings"`
	Objective     float64 `json:"objective,omitempty"`
	WallUS        int64   `json:"wall_us,omitempty"`
	Gap           float64 `json:"gap,omitempty"`
	Phase1        bool    `json:"phase1,omitempty"`
	WarmStart     bool    `json:"warm_start,omitempty"`
	Phase1Skipped bool    `json:"phase1_skipped,omitempty"`
}

// Attrs returns the record's fields as span attributes under their
// JSON names, each one present even when zero. A span's own duration
// stands in for wall_us.
func (e *SolveEnd) Attrs() []Attr {
	return []Attr{
		String("status", e.Status),
		Int("newton", e.Newton),
		Int("centerings", e.Centerings),
		Float("objective", e.Objective),
		Float("gap", e.Gap),
		Bool("phase1", e.Phase1),
		Bool("warm_start", e.WarmStart),
		Bool("phase1_skipped", e.Phase1Skipped),
	}
}

// Centering is one barrier centering step.
type Centering struct {
	Step       int     `json:"step"`
	Gap        float64 `json:"gap"`
	Newton     int     `json:"newton"`
	T          float64 `json:"t,omitempty"`
	Backtracks int     `json:"backtracks,omitempty"`
	Converged  bool    `json:"converged,omitempty"`
}

// MapperEnd summarizes one randomized-mapper search.
type MapperEnd struct {
	Problem string `json:"problem"`
	Trials  int64  `json:"trials"`
	Figures
	Valid     int64 `json:"valid,omitempty"`
	FromCache bool  `json:"from_cache,omitempty"`
}

// ModelValidate is a tlmodel constraint-check outcome.
type ModelValidate struct {
	Problem    string  `json:"problem"`
	Valid      bool    `json:"valid"`
	Violations int     `json:"violations,omitempty"`
	EnergyPJ   float64 `json:"energy_pj,omitempty"`
	Cycles     float64 `json:"cycles,omitempty"`
	EDP        float64 `json:"edp,omitempty"`
	FromCache  bool    `json:"from_cache,omitempty"`
}

// EventType names each payload's stream type, implementing Event.
func (*RunStart) EventType() string      { return EvRunStart }
func (*RunEnd) EventType() string        { return EvRunEnd }
func (*OptimizeStart) EventType() string { return EvOptimizeStart }
func (*OptimizeEnd) EventType() string   { return EvOptimizeEnd }
func (*SolveEnd) EventType() string      { return EvSolveEnd }
func (*Centering) EventType() string     { return EvCentering }
func (*MapperEnd) EventType() string     { return EvMapperEnd }
func (*ModelValidate) EventType() string { return EvModelValidate }

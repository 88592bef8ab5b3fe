package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/specs"
	"repro/internal/workloads"
	"repro/internal/yamlite"
)

// OptimizeRequest is the POST /v1/optimize body. Exactly one workload
// selector must be set: Layer, Layers, Pipeline, ProblemYAML, or Conv.
// The remaining fields mirror the thistle CLI's flags; zero values
// select the same defaults the CLI uses, so a request with only a
// selector returns byte-identical results to `thistle -layer <name>`.
type OptimizeRequest struct {
	// Layer names one Table II layer (e.g. "resnet18_L6").
	Layer string `json:"layer,omitempty"`
	// Layers names several Table II layers, optimized as one batch with
	// cross-layer signature dedup (same as `thistle -pipeline`).
	Layers []string `json:"layers,omitempty"`
	// Pipeline names a whole network: "resnet18", "yolo9000", or "all".
	Pipeline string `json:"pipeline,omitempty"`
	// ProblemYAML is a Timeloop-style problem spec document (the same
	// text `thistle -problem <file>` reads).
	ProblemYAML string `json:"problem_yaml,omitempty"`
	// Conv is the JSON mirror of a problem spec: an explicit Conv2D
	// shape built exactly like the CLI's -K/-C/-H flags.
	Conv *ConvSpec `json:"conv,omitempty"`

	// ArchYAML is a Timeloop-style architecture spec; empty selects
	// Eyeriss, like the CLI.
	ArchYAML string `json:"arch_yaml,omitempty"`
	// Criterion is "energy" (default), "delay", or "edp".
	Criterion string `json:"criterion,omitempty"`
	// Mode is "fixed" (default) or "codesign".
	Mode string `json:"mode,omitempty"`
	// AreaUM2 is the co-design area budget in um^2 (0: Eyeriss-equal).
	AreaUM2 float64 `json:"area_um2,omitempty"`
	// NDiv is the divisor-candidate width per tile variable (0: default).
	NDiv int `json:"ndiv,omitempty"`
	// NoCPJ is the NoC energy per word-hop in pJ (0 disables, the
	// paper's setting).
	NoCPJ float64 `json:"noc_pj,omitempty"`

	// DeadlineMS bounds the request's wall time in milliseconds. 0
	// selects the server's default deadline; values above the server's
	// maximum are clamped to it.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Specs adds the Timeloop-style spec bundle to each result row.
	Specs bool `json:"specs,omitempty"`
	// Trace captures a per-request Chrome trace (thistle-trace-v1,
	// `tlreport trace`-readable) and returns it in the response.
	Trace bool `json:"trace,omitempty"`
	// Events returns the request's thistle-events-v1 JSONL stream in
	// the response.
	Events bool `json:"events,omitempty"`
}

// ConvSpec mirrors loopnest.Conv2DConfig as lowercase JSON: an explicit
// Conv2D problem. H and W are the OUTPUT feature-map sizes (w defaults
// to h, s to r, strides and dilations to 1, n to 1).
type ConvSpec struct {
	Name      string `json:"name,omitempty"`
	N         int64  `json:"n,omitempty"`
	K         int64  `json:"k"`
	C         int64  `json:"c"`
	H         int64  `json:"h"`
	W         int64  `json:"w,omitempty"`
	R         int64  `json:"r"`
	S         int64  `json:"s,omitempty"`
	StrideX   int64  `json:"stride_x,omitempty"`
	StrideY   int64  `json:"stride_y,omitempty"`
	DilationX int64  `json:"dilation_x,omitempty"`
	DilationY int64  `json:"dilation_y,omitempty"`
}

// LayerOutcome is one per-layer result row of an OptimizeResponse,
// pairing the design point's architecture and report with the solve
// signature that addresses it in the cache.
type LayerOutcome struct {
	Problem      string  `json:"problem"`
	Sig          string  `json:"sig"`
	PEs          int64   `json:"pes"`
	Regs         int64   `json:"regs"`
	SRAMWords    int64   `json:"sram_words"`
	EnergyPJ     float64 `json:"energy_pj"`
	EnergyPerMAC float64 `json:"energy_per_mac"`
	Cycles       float64 `json:"cycles"`
	EDP          float64 `json:"edp"`
	IPC          float64 `json:"ipc"`
	Utilization  float64 `json:"utilization"`
	FromCache    bool    `json:"from_cache,omitempty"`
	SpecBundle   string  `json:"spec_bundle,omitempty"`
}

// OptimizeResponse is the POST /v1/optimize success body: the
// per-request run ID, one result row per requested layer (in request
// order), and the request's thistle-manifest-v1 run manifest. Trace and
// EventsJSONL are present only when requested; saved to files they are
// readable by `tlreport trace` and `tlreport validate` unchanged.
type OptimizeResponse struct {
	RunID       string          `json:"run_id"`
	Results     []LayerOutcome  `json:"results"`
	Manifest    json.RawMessage `json:"manifest"`
	Trace       json.RawMessage `json:"trace,omitempty"`
	EventsJSONL string          `json:"events_jsonl,omitempty"`
}

// apiError is the error envelope every non-2xx response carries (under
// an "error" key), plus transport details that go into headers.
type apiError struct {
	status     int
	retryAfter time.Duration

	Code    string `json:"code"`
	Message string `json:"message"`
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, Code: "bad_request", Message: fmt.Sprintf(format, args...)}
}

// work is one admitted request resolved to solvable form.
type work struct {
	// layers is the named-layer path (batch-deduped); prob the
	// spec-derived single-problem path. Exactly one is set.
	layers []workloads.Layer
	prob   *loopnest.Problem
	opts   core.Options
	specs  bool
	desc   string // compact selector description for statusz/args
}

// resolve validates an OptimizeRequest and builds the work unit,
// mirroring the thistle CLI's flag handling (same defaults, same
// criterion/mode spellings) so server and CLI results agree byte for
// byte.
func resolve(req *OptimizeRequest) (*work, *apiError) {
	w := &work{specs: req.Specs}

	selectors := 0
	for _, set := range []bool{req.Layer != "", len(req.Layers) > 0, req.Pipeline != "", req.ProblemYAML != "", req.Conv != nil} {
		if set {
			selectors++
		}
	}
	if selectors == 0 {
		return nil, badRequest("no workload selected: set one of layer, layers, pipeline, problem_yaml, conv")
	}
	if selectors > 1 {
		return nil, badRequest("exactly one of layer, layers, pipeline, problem_yaml, conv may be set")
	}

	switch {
	case req.Layer != "":
		l, ok := workloads.ByName(req.Layer)
		if !ok {
			return nil, badRequest("unknown layer %q (try resnet18_L1..L12, yolo9000_L1..L11)", req.Layer)
		}
		w.layers = []workloads.Layer{l}
		w.desc = "layer=" + req.Layer
	case len(req.Layers) > 0:
		for _, name := range req.Layers {
			l, ok := workloads.ByName(name)
			if !ok {
				return nil, badRequest("unknown layer %q (try resnet18_L1..L12, yolo9000_L1..L11)", name)
			}
			w.layers = append(w.layers, l)
		}
		w.desc = fmt.Sprintf("layers=%d", len(req.Layers))
	case req.Pipeline != "":
		layers, err := workloads.Pipeline(req.Pipeline)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		w.layers = layers
		w.desc = "pipeline=" + req.Pipeline
	case req.ProblemYAML != "":
		node, err := yamlite.Parse(req.ProblemYAML)
		if err != nil {
			return nil, badRequest("problem_yaml: %v", err)
		}
		p, err := specs.ParseProblem(node)
		if err != nil {
			return nil, badRequest("problem_yaml: %v", err)
		}
		w.prob = p
		w.desc = "problem=" + p.Name
	case req.Conv != nil:
		p, err := req.Conv.problem()
		if err != nil {
			return nil, badRequest("conv: %v", err)
		}
		w.prob = p
		w.desc = "conv=" + p.Name
	}

	a := arch.Eyeriss()
	if req.ArchYAML != "" {
		node, err := yamlite.Parse(req.ArchYAML)
		if err != nil {
			return nil, badRequest("arch_yaml: %v", err)
		}
		a, err = specs.ParseArch(node, arch.Tech45nm())
		if err != nil {
			return nil, badRequest("arch_yaml: %v", err)
		}
	}
	a.Tech.EnergyNoCHop = req.NoCPJ

	w.opts = core.Options{Arch: &a, NDiv: req.NDiv, AreaBudget: req.AreaUM2}
	var err error
	if w.opts.Criterion, err = model.ParseCriterion(cmp.Or(req.Criterion, "energy")); err != nil {
		return nil, badRequest("%v", err)
	}
	if w.opts.Mode, err = core.ParseMode(cmp.Or(req.Mode, "fixed")); err != nil {
		return nil, badRequest("%v", err)
	}
	if req.NDiv < 0 {
		return nil, badRequest("ndiv must be >= 0")
	}
	if req.DeadlineMS < 0 {
		return nil, badRequest("deadline_ms must be >= 0")
	}
	return w, nil
}

// problem converts the JSON mirror to a loop-nest problem.
func (c *ConvSpec) problem() (*loopnest.Problem, error) {
	cfg := loopnest.Conv2DConfig{
		Name: c.Name, N: c.N, K: c.K, C: c.C, H: c.H, W: c.W, R: c.R, S: c.S,
		StrideX: c.StrideX, StrideY: c.StrideY,
		DilationX: c.DilationX, DilationY: c.DilationY,
	}
	if cfg.N == 0 {
		cfg.N = 1
	}
	if cfg.W == 0 {
		cfg.W = cfg.H
	}
	if cfg.S == 0 {
		cfg.S = cfg.R
	}
	if cfg.StrideX == 0 {
		cfg.StrideX = 1
	}
	if cfg.StrideY == 0 {
		cfg.StrideY = 1
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("conv_k%d_c%d_h%d_r%d", cfg.K, cfg.C, cfg.H, cfg.R)
	}
	return loopnest.Conv2D(cfg)
}

// maxBodyBytes caps a /v1/optimize body. The largest legitimate body
// carries a problem and an architecture spec document of a few KiB each.
const maxBodyBytes = 1 << 20

// decodeRequest reads and strictly validates the request body: a body
// over maxBodyBytes is refused with 413, and unknown fields are rejected
// so typos fail loudly instead of silently running the default workload.
func decodeRequest(w http.ResponseWriter, r *http.Request) (*OptimizeRequest, *apiError) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, &apiError{
				status: http.StatusRequestEntityTooLarge,
				Code:   "body_too_large", Message: fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes),
			}
		}
		return nil, badRequest("reading request body: %v", err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req OptimizeRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("decoding request body: %v", err)
	}
	// Anything but JSON whitespace after the document is a malformed
	// request (dec.More would let a stray ']' or '}' through).
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, badRequest("request body holds more than one JSON document")
	}
	return &req, nil
}

// requestArgs renders the manifest's args list for a request, so a
// server-side manifest records what was asked just like a CLI manifest
// records os.Args.
func requestArgs(req *OptimizeRequest, w *work) []string {
	args := []string{w.desc}
	if req.Criterion != "" {
		args = append(args, "criterion="+req.Criterion)
	}
	if req.Mode != "" {
		args = append(args, "mode="+req.Mode)
	}
	if req.NDiv != 0 {
		args = append(args, fmt.Sprintf("ndiv=%d", req.NDiv))
	}
	if req.AreaUM2 != 0 {
		args = append(args, fmt.Sprintf("area_um2=%g", req.AreaUM2))
	}
	if req.Trace {
		args = append(args, "trace")
	}
	return args
}

// summary is the one-line request description shown on /statusz.
func (w *work) summary() string {
	parts := []string{w.desc, w.opts.Criterion.String(), w.opts.Mode.String()}
	return strings.Join(parts, " ")
}

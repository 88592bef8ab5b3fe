package events

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// FieldKind classifies the value a thistle-events-v1 field may carry,
// both as the Go value handed to Emit and as the JSON value it decodes
// back to. The kinds are deliberately coarse — the stream is telemetry,
// not an API — but they are exactly what the tlvet eventfields analyzer
// enforces statically at Emit call sites and what Validate enforces
// dynamically on decoded streams, so a producer and a consumer can
// never disagree about a field's shape.
type FieldKind string

// Field kinds. KindInt accepts any Go integer (JSON: a number with an
// integral value); KindFloat additionally accepts fractional numbers
// (an integer is a valid float field); KindAny is unconstrained (used
// for structured values such as the run_start args list).
const (
	KindString FieldKind = "string"
	KindInt    FieldKind = "int"
	KindFloat  FieldKind = "float"
	KindBool   FieldKind = "bool"
	KindAny    FieldKind = "any"
)

// EventSpec describes one event type of the thistle-events-v1 schema:
// the fields every instance must carry and the optional fields a
// well-formed producer may add. Fields outside Required ∪ Optional are
// schema violations at Emit call sites (tlvet eventfields) and warnings
// when read back (Validate) — warnings rather than errors so newer
// streams stay readable by older binaries.
type EventSpec struct {
	Required map[string]FieldKind
	Optional map[string]FieldKind
}

// Kind returns the declared kind of a field and whether the field is
// part of the spec at all.
func (s EventSpec) Kind(field string) (FieldKind, bool) {
	if k, ok := s.Required[field]; ok {
		return k, true
	}
	k, ok := s.Optional[field]
	return k, ok
}

// Schema returns the thistle-events-v1 event table: event type →
// field specification. It is the single source of truth shared by the
// stream validator (tlreport validate, via Validate) and the tlvet
// eventfields analyzer, so the two cannot drift apart. The returned map
// is freshly built on each call; callers may mutate their copy.
func Schema() map[string]EventSpec {
	row := func(req, opt map[string]FieldKind) EventSpec {
		return EventSpec{Required: req, Optional: opt}
	}
	// layerRow is the shared optional payload of the row-bearing events
	// the manifest Recorder folds into per-layer results.
	layerRow := func(extra map[string]FieldKind) map[string]FieldKind {
		m := map[string]FieldKind{
			"energy_pj":      KindFloat,
			"cycles":         KindFloat,
			"edp":            KindFloat,
			"energy_per_mac": KindFloat,
			"ipc":            KindFloat,
		}
		for k, v := range extra {
			m[k] = v
		}
		return m
	}
	return map[string]EventSpec{
		obs.EvRunStart: row(
			map[string]FieldKind{"run_id": KindString, "tool": KindString, "go_version": KindString},
			map[string]FieldKind{"git_rev": KindString, "args": KindAny, "start_time": KindString, "request_id": KindString},
		),
		obs.EvRunEnd: row(
			map[string]FieldKind{
				"layers": KindInt, "energy_pj": KindFloat, "cycles": KindFloat,
				"edp": KindFloat, "wall_us": KindInt,
			},
			map[string]FieldKind{"fresh_solves": KindInt},
		),
		obs.EvLayersTotal: row(
			map[string]FieldKind{"total": KindInt},
			nil,
		),
		obs.EvOptimizeStart: row(
			map[string]FieldKind{"problem": KindString},
			map[string]FieldKind{"sig": KindString, "mode": KindString, "criterion": KindString},
		),
		obs.EvOptimizeEnd: row(
			map[string]FieldKind{"problem": KindString, "status": KindString},
			layerRow(map[string]FieldKind{
				"sig": KindString, "wall_us": KindInt, "error": KindString,
				"pairs_solved": KindInt, "fresh_solves": KindInt,
				"candidates": KindInt, "from_cache": KindBool,
				"reused": KindBool, "from": KindString,
			}),
		),
		obs.EvSolveEnd: row(
			map[string]FieldKind{"status": KindString, "newton": KindInt, "centerings": KindInt},
			map[string]FieldKind{
				"objective": KindFloat, "wall_us": KindInt,
				"gap": KindFloat, "phase1": KindBool,
				"warm_start": KindBool, "phase1_skipped": KindBool,
			},
		),
		obs.EvCentering: row(
			map[string]FieldKind{"step": KindInt, "gap": KindFloat, "newton": KindInt},
			map[string]FieldKind{"t": KindFloat, "backtracks": KindInt, "converged": KindBool},
		),
		obs.EvMapperEnd: row(
			map[string]FieldKind{"problem": KindString, "trials": KindInt},
			layerRow(map[string]FieldKind{"valid": KindInt, "from_cache": KindBool}),
		),
		obs.EvModelValidate: row(
			map[string]FieldKind{"problem": KindString, "valid": KindBool},
			map[string]FieldKind{
				"violations": KindInt, "energy_pj": KindFloat, "cycles": KindFloat,
				"edp": KindFloat, "from_cache": KindBool,
			},
		),
	}
}

// CheckValue reports whether a JSON-decoded field value conforms to the
// kind. Integers arrive from encoding/json as float64, so KindInt
// accepts any number with an integral value.
func (k FieldKind) CheckValue(v any) error {
	switch k {
	case KindAny:
		return nil
	case KindString:
		if _, ok := v.(string); ok {
			return nil
		}
	case KindBool:
		if _, ok := v.(bool); ok {
			return nil
		}
	case KindInt:
		if f, ok := v.(float64); ok && math.Trunc(f) == f {
			return nil
		}
	case KindFloat:
		if _, ok := v.(float64); ok {
			return nil
		}
	}
	return fmt.Errorf("value %v (%T) is not a valid %s", v, v, k)
}

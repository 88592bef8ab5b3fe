package events

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestSchemaCoversAllEventTypes pins the schema table to the declared
// event-type constants: every Ev* constant has a spec and every spec
// key is a declared constant.
func TestSchemaCoversAllEventTypes(t *testing.T) {
	all := []string{
		obs.EvRunStart, obs.EvRunEnd, obs.EvLayersTotal, obs.EvOptimizeStart, obs.EvOptimizeEnd,
		obs.EvSolveEnd, obs.EvCentering, obs.EvMapperEnd, obs.EvModelValidate,
	}
	schema := Schema()
	if len(schema) != len(all) {
		t.Errorf("Schema() has %d entries, want %d", len(schema), len(all))
	}
	for _, typ := range all {
		spec, ok := schema[typ]
		if !ok {
			t.Errorf("Schema() missing event type %q", typ)
			continue
		}
		if len(spec.Required) == 0 {
			t.Errorf("Schema()[%q] has no required fields", typ)
		}
		for field, kind := range spec.Required {
			if _, dup := spec.Optional[field]; dup {
				t.Errorf("Schema()[%q]: field %q is both required and optional", typ, field)
			}
			if kind == "" {
				t.Errorf("Schema()[%q]: field %q has empty kind", typ, field)
			}
		}
	}
}

func TestFieldKindCheckValue(t *testing.T) {
	cases := []struct {
		kind FieldKind
		v    any
		ok   bool
	}{
		{KindString, "x", true},
		{KindString, 3.0, false},
		{KindBool, true, true},
		{KindBool, "true", false},
		{KindInt, 3.0, true},     // JSON integers decode as float64
		{KindInt, 3.5, false},    // fractional is not an int
		{KindInt, "3", false},    //
		{KindFloat, 3.5, true},   //
		{KindFloat, 3.0, true},   // integral floats are floats
		{KindFloat, true, false}, //
		{KindAny, []any{"a"}, true},
		{KindAny, nil, true},
	}
	for _, c := range cases {
		err := c.kind.CheckValue(c.v)
		if (err == nil) != c.ok {
			t.Errorf("%s.CheckValue(%#v): got err=%v, want ok=%v", c.kind, c.v, err, c.ok)
		}
	}
}

// TestValidateChecksFieldKinds exercises the dynamic side of the shared
// schema: a required field carried with the wrong kind fails
// validation, an unknown field on a known type is only a warning.
func TestValidateChecksFieldKinds(t *testing.T) {
	var b strings.Builder
	e := NewEmitter(&b)
	e.Emit(obs.EvRunStart, map[string]any{"run_id": "r1", "tool": "test", "go_version": "go"})
	e.Emit(obs.EvSolveEnd, map[string]any{"status": "optimal", "newton": "seven", "centerings": 1})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(strings.NewReader(b.String())); err == nil {
		t.Fatal("Validate accepted a string-valued newton field")
	}

	b.Reset()
	e = NewEmitter(&b)
	e.Emit(obs.EvRunStart, map[string]any{"run_id": "r1", "tool": "test", "go_version": "go"})
	e.Emit(obs.EvSolveEnd, map[string]any{
		"status": "optimal", "newton": 7, "centerings": 1, "newtonn": 8,
	})
	e.Emit(obs.EvRunEnd, map[string]any{
		"layers": 1, "energy_pj": 1.0, "cycles": 2.0, "edp": 2.0, "wall_us": 10,
	})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := Validate(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("Validate: %v", err)
	}
	found := false
	for _, w := range sum.Warnings {
		if strings.Contains(w, `unknown field "newtonn"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("expected an unknown-field warning for newtonn, got %v", sum.Warnings)
	}
}

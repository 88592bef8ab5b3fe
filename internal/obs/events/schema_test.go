package events

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestSchemaRequiredFields pins the required fields derived from the
// payload types: a field gaining or losing omitempty changes which
// recorded streams Validate rejects.
func TestSchemaRequiredFields(t *testing.T) {
	want := map[string]string{
		obs.EvRunStart:      "go_version run_id tool",
		obs.EvRunEnd:        "cycles edp energy_pj layers wall_us",
		obs.EvOptimizeStart: "problem",
		obs.EvOptimizeEnd:   "problem status",
		obs.EvSolveEnd:      "centerings newton status",
		obs.EvCentering:     "gap newton step",
		obs.EvMapperEnd:     "problem trials",
		obs.EvModelValidate: "problem valid",
	}
	specs := schema()
	if len(specs) != len(want) {
		t.Errorf("schema has %d event types, want %d", len(specs), len(want))
	}
	for typ, fields := range want {
		if got := strings.Join(sortedKeys(specs[typ].Required), " "); got != fields {
			t.Errorf("%s required fields = %q, want %q", typ, got, fields)
		}
	}
	if k, _ := specs[obs.EvOptimizeEnd].Kind("energy_pj"); k != KindFloat {
		t.Errorf("optimize_end energy_pj (embedded Figures) kind = %q, want float", k)
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

// TestValidateChecksFieldKinds: a required field carried with the
// wrong kind fails validation, an unknown field on a known type is only
// a warning. The streams are literals because the typed payloads
// cannot carry either defect.
func TestValidateChecksFieldKinds(t *testing.T) {
	const start = `{"schema":"thistle-events-v1","seq":1,"t_us":0,"type":"run_start","fields":{"run_id":"r1","tool":"test","go_version":"go"}}` + "\n"
	stream := start +
		`{"seq":2,"t_us":1,"type":"solve_end","fields":{"status":"optimal","newton":"seven","centerings":1}}` + "\n"
	if _, err := Validate(strings.NewReader(stream)); err == nil {
		t.Fatal("Validate accepted a string-valued newton field")
	}

	stream = start +
		`{"seq":2,"t_us":1,"type":"solve_end","fields":{"status":"optimal","newton":7,"centerings":1,"newtonn":8}}` + "\n" +
		`{"seq":3,"t_us":2,"type":"run_end","fields":{"layers":1,"energy_pj":1,"cycles":2,"edp":2,"wall_us":10}}` + "\n"
	sum, err := Validate(strings.NewReader(stream))
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

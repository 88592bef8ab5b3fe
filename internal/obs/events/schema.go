package events

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"

	"repro/internal/obs"
)

// FieldKind classifies the value a thistle-events-v1 field may carry
// once decoded from JSON. The kinds are deliberately coarse — the
// stream is telemetry, not an API — and each is derived from the Go
// type of the payload field that writes it (see schema), so a producer
// and Validate cannot disagree about a field's shape.
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

// eventSpec describes one event type: the fields every instance must
// carry and the optional fields a producer may add. Fields outside
// Required ∪ Optional are warnings when read back (Validate) rather
// than errors, so newer streams stay readable by older binaries.
type eventSpec struct {
	Required map[string]FieldKind
	Optional map[string]FieldKind
}

// Kind returns the declared kind of a field and whether the field is
// part of the spec at all.
func (s eventSpec) Kind(field string) (FieldKind, bool) {
	if k, ok := s.Required[field]; ok {
		return k, true
	}
	k, ok := s.Optional[field]
	return k, ok
}

// schema maps each event type of the registry (obs.EventTypes) to its
// spec, derived by reflection from the payload struct: a field tagged
// omitempty is optional, any other is required, and the field's Go
// kind gives its FieldKind.
var schema = sync.OnceValue(func() map[string]eventSpec {
	m := make(map[string]eventSpec, len(obs.EventTypes))
	for _, ev := range obs.EventTypes {
		spec := eventSpec{Required: map[string]FieldKind{}, Optional: map[string]FieldKind{}}
		spec.add(reflect.TypeOf(ev).Elem())
		m[ev.EventType()] = spec
	}
	return m
})

// add records the JSON fields of struct type t, descending into
// embedded structs as encoding/json does.
func (s eventSpec) add(t reflect.Type) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			s.add(f.Type)
			continue
		}
		name, opts, _ := strings.Cut(f.Tag.Get("json"), ",")
		if opts == "omitempty" {
			s.Optional[name] = kindOf(f.Type)
		} else {
			s.Required[name] = kindOf(f.Type)
		}
	}
}

// kindOf maps a payload field's Go type to the kind of its JSON value.
func kindOf(t reflect.Type) FieldKind {
	switch t.Kind() {
	case reflect.String:
		return KindString
	case reflect.Bool:
		return KindBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return KindInt
	case reflect.Float32, reflect.Float64:
		return KindFloat
	}
	return KindAny
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

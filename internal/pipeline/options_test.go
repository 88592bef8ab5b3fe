package pipeline

import (
	"testing"

	"repro/internal/model"
)

// TestResultUsableShape: a result is usable only when its mapping has
// the standard nest's four levels of perms and trips, trip rows of one
// non-zero length, and no trip below 1.
func TestResultUsableShape(t *testing.T) {
	good := func() *model.Mapping {
		return &model.Mapping{
			Perms: [][]int{nil, {0, 1}, nil, {1, 0}},
			Trips: [][]int64{{2, 1}, {1, 3}, {2, 1}, {1, 1}},
		}
	}
	result := func(m *model.Mapping) *Result {
		return &Result{Best: &DesignPoint{Mapping: m, Report: &model.Report{Ops: 12}}}
	}
	if !result(good()).Usable() {
		t.Fatal("a standard-shaped result is not usable")
	}
	for _, c := range []struct {
		name   string
		mangle func(m *model.Mapping)
	}{
		{"no trips", func(m *model.Mapping) { m.Trips = [][]int64{} }},
		{"three trip levels", func(m *model.Mapping) { m.Trips = m.Trips[:3] }},
		{"three perm levels", func(m *model.Mapping) { m.Perms = m.Perms[:3] }},
		{"empty rows", func(m *model.Mapping) { m.Trips = [][]int64{{}, {}, {}, {}} }},
		{"ragged rows", func(m *model.Mapping) { m.Trips[2] = []int64{2} }},
		{"zero trip", func(m *model.Mapping) { m.Trips[1][0] = 0 }},
		{"negative trip", func(m *model.Mapping) { m.Trips[3][1] = -1 }},
	} {
		m := good()
		c.mangle(m)
		if result(m).Usable() {
			t.Errorf("%s: usable", c.name)
		}
	}
	if result(nil).Usable() {
		t.Error("a result without a mapping is usable")
	}
}

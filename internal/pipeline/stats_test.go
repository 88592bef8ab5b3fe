package pipeline

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/loopnest"
	"repro/internal/obs"
)

// TestStatsClassesMid runs the deep-hierarchy example's layer on its
// four-level memory (registers, a per-PE scratchpad, the SRAM): each
// placement's span must name the class count of every copy level, the
// product of which is its tuple count, and Stats must sum the middle
// level's counts over the placements and serialize them.
func TestStatsClassesMid(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "stage", N: 1, K: 64, C: 64, H: 28, W: 28, R: 3, S: 3,
		StrideX: 1, StrideY: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := arch.Eyeriss()
	a.Regs, a.PEs = 48, 256
	a.Mid = []arch.Buffer{{Name: "spad", Words: 2048, Energy: a.Tech.SigmaS * 45, BW: 8, PerPE: true}}
	o := &obs.Obs{Tracer: obs.NewTracer()}
	res, err := Execute(obs.NewContext(context.Background(), o), p, Options{Arch: &a, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}

	wantTuples := map[string]int{"rs_at_register": 125, "rs_at_level1": 300}
	var mid int
	var placements []obs.SpanInfo
	var walk func([]obs.SpanInfo)
	walk = func(spans []obs.SpanInfo) {
		for _, s := range spans {
			if s.Name == "rs-placement" {
				placements = append(placements, s)
			}
			walk(s.Children)
		}
	}
	walk(o.Tracer.Tree())
	if len(placements) != len(wantTuples) {
		t.Fatalf("%d rs-placement spans, want %d", len(placements), len(wantTuples))
	}
	for _, s := range placements {
		counts, ok := s.Attrs["classes_mid"].([]int)
		if !ok || len(counts) != 1 {
			t.Fatalf("%v: classes_mid = %#v, want one count", s.Attrs["rs"], s.Attrs["classes_mid"])
		}
		tuples := int(s.Attrs["classes_l1"].(int64)) * counts[0] * int(s.Attrs["classes_sram"].(int64))
		if want := wantTuples[s.Attrs["rs"].(string)]; tuples != want {
			t.Errorf("%v: %v x %v x %v = %d class tuples, want %d", s.Attrs["rs"],
				s.Attrs["classes_l1"], counts[0], s.Attrs["classes_sram"], tuples, want)
		}
		mid += counts[0]
	}
	if st := res.Stats; st.ClassesMid == nil || len(*st.ClassesMid) != 1 || (*st.ClassesMid)[0] != mid {
		t.Fatalf("Stats.ClassesMid = %v, want [%d]", st.ClassesMid, mid)
	}
	data, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"ClassesMid":[`) {
		t.Errorf("Stats JSON lacks the middle level's counts: %s", data)
	}
}

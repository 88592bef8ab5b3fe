package specs

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/dataflow"
	"repro/internal/loopnest"
	"repro/internal/model"
	"repro/internal/yamlite"
)

func TestProblemRoundTripConv(t *testing.T) {
	p, err := loopnest.Conv2D(loopnest.Conv2DConfig{
		Name: "l4", N: 1, K: 128, C: 64, H: 28, W: 28, R: 3, S: 3,
		StrideX: 2, StrideY: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	node := FromProblem(p)
	text := yamlite.Encode(node)
	if !strings.Contains(text, "2*H+R") {
		t.Fatalf("projection missing stride:\n%s", text)
	}
	parsed, err := yamlite.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseProblem(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != p.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", back.String(), p.String())
	}
}

func TestProblemRoundTripMatmul(t *testing.T) {
	p := loopnest.MatMul(64, 32, 16)
	back, err := ParseProblem(FromProblem(p))
	if err != nil {
		t.Fatal(err)
	}
	if back.Ops() != p.Ops() || len(back.Tensors) != 3 || !back.Tensors[2].ReadWrite {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestParseProblemErrors(t *testing.T) {
	bad := []string{
		"foo: 1",
		"problem:\n  shape:\n    name: x\n",
		"problem:\n  shape:\n    name: x\n    dimensions:\n      - I\n    data-spaces:\n      - name: A\n        projection:\n          - J\n  instance:\n    I: 4\n",
	}
	for _, src := range bad {
		n, err := yamlite.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseProblem(n); err == nil {
			t.Fatalf("ParseProblem(%q) should fail", src)
		}
	}
}

func TestArchRoundTrip(t *testing.T) {
	e := arch.Eyeriss()
	node := FromArch(&e)
	text := yamlite.Encode(node)
	if !strings.Contains(text, "PE[0..167]") {
		t.Fatalf("PE array missing:\n%s", text)
	}
	parsed, err := yamlite.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseArch(parsed, arch.Tech45nm())
	if err != nil {
		t.Fatal(err)
	}
	if back.PEs != 168 || back.Regs != 512 || back.SRAM != 65536 {
		t.Fatalf("arch round trip = %+v", back)
	}
}

func TestParsePEArray(t *testing.T) {
	if n, ok := parsePEArray("PE[0..15]"); !ok || n != 16 {
		t.Fatalf("parsePEArray = %d, %v", n, ok)
	}
	for _, s := range []string{"PE", "PE[0..]", "PE[5..1]", "Chip"} {
		if _, ok := parsePEArray(s); ok {
			t.Fatalf("parsePEArray(%q) should fail", s)
		}
	}
}

func standardSetup(t *testing.T) (*dataflow.Nest, *model.Mapping, *loopnest.Problem) {
	t.Helper()
	p := loopnest.MatMul(64, 64, 64)
	n, err := dataflow.StandardNest(p, dataflow.StandardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m := &model.Mapping{
		Perms: dataflow.StandardPerms([]int{0, 1, 2}, []int{0, 2, 1}),
		Trips: [][]int64{
			{4, 4, 4},
			{2, 2, 4},
			{2, 2, 1},
			{4, 4, 4},
		},
	}
	return n, m, p
}

func TestMappingRoundTrip(t *testing.T) {
	n, m, _ := standardSetup(t)
	node, err := FromMapping(n, m)
	if err != nil {
		t.Fatal(err)
	}
	text := yamlite.Encode(node)
	if !strings.Contains(text, "target: DRAM") || !strings.Contains(text, "type: spatial") {
		t.Fatalf("mapping text:\n%s", text)
	}
	parsed, err := yamlite.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseMapping(parsed, n)
	if err != nil {
		t.Fatal(err)
	}
	for li := range m.Trips {
		for it := range m.Trips[li] {
			if m.Trips[li][it] != back.Trips[li][it] {
				t.Fatalf("trips differ at level %d iter %d: %d vs %d",
					li, it, m.Trips[li][it], back.Trips[li][it])
			}
		}
	}
	// Evaluation must agree exactly.
	e := arch.Eyeriss()
	ev := model.NewEvaluator(n)
	r1, err := ev.Evaluate(&e, m)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ev.Evaluate(&e, back)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Energy != r2.Energy || r1.Cycles != r2.Cycles {
		t.Fatalf("round-tripped mapping evaluates differently: %v vs %v", r1.Energy, r2.Energy)
	}
}

func TestMappingPermConvention(t *testing.T) {
	n, m, _ := standardSetup(t)
	node, err := FromMapping(n, m)
	if err != nil {
		t.Fatal(err)
	}
	// SRAM perm outer-to-inner i,k,j → Timeloop (innermost first): J K I.
	text := yamlite.Encode(node)
	if !strings.Contains(text, "permutation: J K I") {
		t.Fatalf("unexpected permutation rendering:\n%s", text)
	}
}

func TestParseMappingErrors(t *testing.T) {
	n, _, _ := standardSetup(t)
	cases := []string{
		"mapping: x",
		"mapping:\n  - type: temporal\n",
		"mapping:\n  - target: DRAM\n    type: temporal\n    factors: Z=4\n",
		"mapping:\n  - target: WAT\n    type: temporal\n    factors: I=4\n",
	}
	for _, src := range cases {
		node, err := yamlite.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseMapping(node, n); err == nil {
			t.Fatalf("ParseMapping(%q) should fail", src)
		}
	}
}

func TestDesignBundle(t *testing.T) {
	n, m, p := standardSetup(t)
	e := arch.Eyeriss()
	text, err := DesignBundle(p, &e, n, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"problem:", "architecture:", "mapping:"} {
		if !strings.Contains(text, want) {
			t.Fatalf("bundle missing %q:\n%s", want, text)
		}
	}
	// The bundle must be parseable as one document.
	if _, err := yamlite.Parse(text); err != nil {
		t.Fatal(err)
	}

	// A four-level memory's nest (a per-PE buffer between registers and
	// SRAM) has levels the Fig. 3 spec has no target for: refused, not
	// written as a three-level design.
	deep, err := dataflow.BuildNest(p, 3, 1, dataflow.RSAtRegister)
	if err != nil {
		t.Fatal(err)
	}
	e.Mid = []arch.Buffer{{Name: "spad", Words: 256, Energy: 0.5, BW: 8, PerPE: true}}
	if _, err := DesignBundle(p, &e, deep, model.UniformMapping(deep)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bundle of a depth-3 design: err = %v, want ErrBadSpec", err)
	}
}

func TestSortedFactors(t *testing.T) {
	if got := SortedFactors("K=4 C=1 A=9"); got != "A=9 C=1 K=4" {
		t.Fatalf("SortedFactors = %q", got)
	}
}

func TestParseConstraints(t *testing.T) {
	n, _, _ := standardSetup(t)
	doc := `
constraints:
  - target: SRAM
    type: spatial
    factors: I=8 J=8
  - target: DRAM
    type: temporal
    permutation: J K I
`
	node, err := yamlite.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	cons, err := ParseConstraints(node, n)
	if err != nil {
		t.Fatal(err)
	}
	if cons.FixedTrips[dataflow.StandardLevelSpatial][0] != 8 ||
		cons.FixedTrips[dataflow.StandardLevelSpatial][1] != 8 {
		t.Fatalf("spatial trips = %v", cons.FixedTrips)
	}
	// Permutation "J K I" innermost-first → outer-to-inner i, k, j.
	perm := cons.FixedPerms[dataflow.StandardLevelSRAM]
	want := []int{0, 2, 1}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

func TestParseConstraintsErrors(t *testing.T) {
	n, _, _ := standardSetup(t)
	cases := []string{
		"foo: 1",
		"constraints:\n  - type: temporal\n",
		"constraints:\n  - target: DRAM\n",
		"constraints:\n  - target: WAT\n    type: temporal\n",
		"constraints:\n  - target: DRAM\n    type: temporal\n    factors: Z=4\n",
		"constraints:\n  - target: DRAM\n    type: temporal\n    factors: I=x\n",
		"constraints:\n  - target: DRAM\n    type: temporal\n    factors: I\n",
		"constraints:\n  - target: DRAM\n    type: temporal\n    permutation: Q K I\n",
	}
	for _, src := range cases {
		node, err := yamlite.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseConstraints(node, n); err == nil {
			t.Fatalf("ParseConstraints(%q) should fail", src)
		}
	}
}

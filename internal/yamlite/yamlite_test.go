package yamlite

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, src string) *Node {
	t.Helper()
	n, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return n
}

const docScalars = `
name: ExampleArch
depth: 1024
bw: 8.5
flag: true
quoted: 'a: b'
empty:
`

func TestParseScalarsAndTypes(t *testing.T) {
	n := mustParse(t, docScalars)
	if s, _ := n.Get("name").Str(); s != "ExampleArch" {
		t.Fatalf("name = %q", s)
	}
	if v, _ := n.Get("depth").Int(); v != 1024 {
		t.Fatalf("depth = %d", v)
	}
	if v, _ := n.Get("bw").Float(); v != 8.5 {
		t.Fatalf("bw = %v", v)
	}
	if v, _ := n.Get("flag").Bool(); v != true {
		t.Fatal("flag")
	}
	if s, _ := n.Get("quoted").Str(); s != "a: b" {
		t.Fatalf("quoted = %q", s)
	}
	if s, _ := n.Get("empty").Str(); s != "" {
		t.Fatalf("empty = %q", s)
	}
}

const docNested = `
architecture:
  version: A.3
  subtree:
    - name: system
      local:
        - attributes:
            depth: 1024
            word-bits: 16
          class: SRAM
          name: SRAM
    - name: chip
mapping:
  - factors: K=4 J=4 I=4
    permutation: J K I
    target: DRAM
  - target: SRAM
`

func TestParseNestedMapsAndSeqs(t *testing.T) {
	n := mustParse(t, docNested)
	arch := n.Get("architecture")
	if v, _ := arch.Get("version").Str(); v != "A.3" {
		t.Fatalf("version = %q", v)
	}
	sub := arch.Get("subtree")
	if sub.Kind != Seq || len(sub.Items) != 2 {
		t.Fatalf("subtree = %+v", sub)
	}
	local := sub.Items[0].Get("local")
	if local.Kind != Seq || len(local.Items) != 1 {
		t.Fatalf("local = %+v", local)
	}
	if d, _ := local.Items[0].Get("attributes").Get("depth").Int(); d != 1024 {
		t.Fatalf("depth = %d", d)
	}
	if c, _ := local.Items[0].Get("class").Str(); c != "SRAM" {
		t.Fatalf("class = %q", c)
	}
	mp := n.Get("mapping")
	if len(mp.Items) != 2 {
		t.Fatalf("mapping items = %d", len(mp.Items))
	}
	if f, _ := mp.Items[0].Get("factors").Str(); f != "K=4 J=4 I=4" {
		t.Fatalf("factors = %q", f)
	}
}

const docComments = `
a: 1 # trailing
# full line
b: 'keep # this'
`

func TestParseComments(t *testing.T) {
	n := mustParse(t, docComments)
	if v, _ := n.Get("a").Int(); v != 1 {
		t.Fatal("a")
	}
	if s, _ := n.Get("b").Str(); s != "keep # this" {
		t.Fatalf("b = %q", s)
	}
}

const docSeqOfScalars = `
dims:
  - I
  - J
  - K
`

func TestParseSeqOfScalars(t *testing.T) {
	n := mustParse(t, docSeqOfScalars)
	d := n.Get("dims")
	if d.Kind != Seq || len(d.Items) != 3 {
		t.Fatalf("dims = %+v", d)
	}
	if s, _ := d.Items[2].Str(); s != "K" {
		t.Fatalf("dims[2] = %q", s)
	}
}

const docDashAlone = "xs:\n  -\n    a: 1\n  -\n    a: 2\n"

func TestParseDashAloneItem(t *testing.T) {
	n := mustParse(t, docDashAlone)
	xs := n.Get("xs")
	if len(xs.Items) != 2 {
		t.Fatalf("items = %d", len(xs.Items))
	}
	if v, _ := xs.Items[1].Get("a").Int(); v != 2 {
		t.Fatal("nested item")
	}
}

var badDocs = []string{
	"a: 1\n\tb: 2",    // tab indent
	"a:\n   - x\n  y", // inconsistent
	"a: 1\na: 2",      // duplicate key
}

func TestParseErrors(t *testing.T) {
	for _, src := range badDocs {
		if _, err := Parse(src); err == nil {
			t.Fatalf("Parse(%q) should fail", src)
		}
	}
}

const docEmpty = "\n  \n# only comments\n"

func TestEmptyDocument(t *testing.T) {
	n := mustParse(t, docEmpty)
	if n.Kind != Map || len(n.Keys()) != 0 {
		t.Fatalf("empty doc = %+v", n)
	}
}

const docAccessors = "m:\n  k: v\n"

func TestAccessorErrors(t *testing.T) {
	n := mustParse(t, docAccessors)
	if _, err := n.Get("m").Int(); err == nil {
		t.Fatal("Int on map should fail")
	}
	if _, err := n.Get("m").Get("k").Int(); err == nil {
		t.Fatal("Int on non-numeric should fail")
	}
	if _, err := n.Get("m").Get("k").Bool(); err == nil {
		t.Fatal("Bool on non-bool should fail")
	}
	if n.Get("missing") != nil {
		t.Fatal("missing key should be nil")
	}
	if _, err := n.Get("missing").Str(); err == nil {
		t.Fatal("Str on nil should fail")
	}
}

func TestBuildersAndEncode(t *testing.T) {
	root := NewMap()
	root.Set("name", NewScalar("test"))
	root.Set("count", NewInt(42))
	root.Set("ratio", NewFloat(2.5))
	root.Set("on", NewBool(true))
	seq := NewSeq()
	item := NewMap()
	item.Set("target", NewScalar("DRAM"))
	item.Set("factors", NewScalar("K=4 J=4"))
	seq.Append(item)
	seq.Append(NewScalar("plain"))
	root.Set("mapping", seq)

	out := Encode(root)
	back, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if !Equal(root, back) {
		t.Fatalf("round trip mismatch:\n%s", out)
	}
}

func TestEncodeEmptyCollections(t *testing.T) {
	root := NewMap()
	root.Set("emptymap", NewMap())
	root.Set("emptyseq", NewSeq())
	out := Encode(root)
	if !strings.Contains(out, "{}") || !strings.Contains(out, "[]") {
		t.Fatalf("empty encodings missing:\n%s", out)
	}
}

// docTimeloopSpec is a trimmed version of the paper's Fig. 3(a).
const docTimeloopSpec = `architecture:
  version: A.3
  subtree:
    - name: system
      local:
        - attributes:
            read_bandwidth: 8
            type: LPDDR4
            word-bits: 16
            write_bandwidth: 8
          class: DRAM
          name: DRAM
      subtree:
        - name: Chip
          local:
            - attributes:
                depth: 1024
                read_bandwidth: 80
                word-bits: 16
                write_bandwidth: 80
              class: SRAM
              name: SRAM
          subtree:
            - name: PE[0..15]
              local:
                - attributes:
                    depth: 64
                    meshX: 4
                  class: regfile
                  name: RegisterFile
                - attributes:
                    datawidth: 16
                    meshX: 4
                  class: intmac
                  name: MACC
`

func TestRoundTripRealTimeloopSpec(t *testing.T) {
	n := mustParse(t, docTimeloopSpec)
	out := Encode(n)
	back := mustParse(t, out)
	if !Equal(n, back) {
		t.Fatalf("round trip mismatch:\n%s", out)
	}
	// Deep access.
	pe := n.Get("architecture").Get("subtree").Items[0].Get("subtree").Items[0].Get("subtree").Items[0]
	if name, _ := pe.Get("name").Str(); name != "PE[0..15]" {
		t.Fatalf("PE name = %q", name)
	}
	if mesh, _ := pe.Get("local").Items[0].Get("attributes").Get("meshX").Int(); mesh != 4 {
		t.Fatalf("meshX = %d", mesh)
	}
}

// Property: Encode∘Parse is the identity on randomly built trees.
func TestQuickRoundTrip(t *testing.T) {
	var build func(depth int, seed uint64) *Node
	build = func(depth int, seed uint64) *Node {
		switch {
		case depth == 0 || seed%3 == 0:
			return NewScalar(scalarFor(seed))
		case seed%3 == 1:
			m := NewMap()
			for i := uint64(0); i < seed%4+1; i++ {
				m.Set(keyFor(seed+i), build(depth-1, seed/3+i*7))
			}
			return m
		default:
			s := NewSeq()
			for i := uint64(0); i < seed%3+1; i++ {
				s.Append(build(depth-1, seed/5+i*13))
			}
			return s
		}
	}
	f := func(seed uint64) bool {
		n := build(3, seed)
		root := NewMap().Set("root", n)
		back, err := Parse(Encode(root))
		if err != nil {
			return false
		}
		return Equal(root, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func scalarFor(seed uint64) string {
	opts := []string{"abc", "1024", "a: b", "x#y", "", "true", "-3.5", "- dash", "K=4 J=4"}
	return opts[seed%uint64(len(opts))]
}

func keyFor(seed uint64) string {
	opts := []string{"name", "class", "attributes", "subtree", "local", "k1", "k2", "k3"}
	return opts[seed%uint64(len(opts))]
}

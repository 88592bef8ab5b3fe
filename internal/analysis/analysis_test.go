package analysis

import (
	"strings"
	"testing"
)

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "wallclock", Message: "time.Now reachable from a solve path", File: "internal/solver/barrier.go", Line: 42, Col: 7}
	want := "internal/solver/barrier.go:42: [wallclock] time.Now reachable from a solve path"
	if got := f.String(); got != want {
		t.Errorf("Finding.String() = %q, want %q", got, want)
	}
}

func TestLoadModuleFindsCorePackages(t *testing.T) {
	pkgs, err := LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package)
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	for _, path := range []string{
		"repro/internal/analysis",
		"repro/internal/expr",
		"repro/internal/obs",
		"repro/internal/obs/events",
		"repro/cmd/tlvet",
	} {
		if byPath[path] == nil {
			t.Errorf("LoadModule missing package %s", path)
		}
	}
	if p := byPath["repro/internal/obs"]; p != nil {
		if len(p.Files) == 0 || p.Types == nil || p.Info == nil {
			t.Errorf("package %s not fully loaded: files=%d", p.Path, len(p.Files))
		}
		for _, f := range p.Files {
			name := p.Fset.Position(f.Pos()).Filename
			if strings.HasSuffix(name, "_test.go") {
				t.Errorf("test file %s was loaded; analyzers must only see production code", name)
			}
		}
	}
	// The analyzers' own fixtures must never be analyzed as module
	// packages.
	for path := range byPath {
		if strings.Contains(path, "testdata") {
			t.Errorf("testdata package %s leaked into the module load", path)
		}
	}
}

// TestIgnoreDirectiveForms checks directive parsing directly: a reason
// is mandatory (with or without the -- separator present) and the
// analyzer name must exist.
func TestIgnoreDirectiveForms(t *testing.T) {
	pkg, err := LoadDir("testdata/ignoreform", "repro/internal/analysis/testdata/ignoreform")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{"droppederr": true}
	ig := collectIgnores(pkg, known)

	if len(ig.malformed) != 3 {
		t.Fatalf("got %d malformed-directive findings, want 3: %v", len(ig.malformed), ig.malformed)
	}
	var messages []string
	for _, f := range ig.malformed {
		if f.Analyzer != "tlvet" {
			t.Errorf("malformed directive reported by %q, want tlvet", f.Analyzer)
		}
		messages = append(messages, f.Message)
	}
	joined := strings.Join(messages, "\n")
	if !strings.Contains(joined, "needs a reason") {
		t.Errorf("missing needs-a-reason finding in %q", joined)
	}
	if !strings.Contains(joined, `unknown analyzer "nosuch"`) {
		t.Errorf("missing unknown-analyzer finding in %q", joined)
	}

	// The one valid directive suppresses its own line and the next.
	valid := Finding{Analyzer: "droppederr", File: pkg.Fset.Position(pkg.Files[0].Pos()).Filename, Line: 6}
	if !ig.suppresses(valid) {
		t.Errorf("valid directive did not suppress a same-line finding")
	}
	valid.Line = 7
	if !ig.suppresses(valid) {
		t.Errorf("valid directive did not suppress a next-line finding")
	}
	valid.Line = 8
	if ig.suppresses(valid) {
		t.Errorf("directive suppressed a finding two lines below")
	}
	valid.Analyzer = "maprange"
	valid.Line = 6
	if ig.suppresses(valid) {
		t.Errorf("directive for droppederr suppressed a maprange finding")
	}
}

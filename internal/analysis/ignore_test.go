package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseIgnoreFixture builds the minimal Package collectIgnores needs (a
// parsed file with comments) from source text.
func parseIgnoreFixture(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Path: "repro/internal/fix", Fset: fset, Files: []*ast.File{f}}
}

var ignoreKnown = map[string]bool{"wallclock": true, "maprange": true, "goscheduler": true}

func finding(analyzer string, line int) Finding {
	return Finding{Analyzer: analyzer, File: "fix.go", Line: line}
}

func TestIgnoreMultipleAnalyzersOneLine(t *testing.T) {
	pkg := parseIgnoreFixture(t, `package fix

func f() {
	//tlvet:ignore wallclock, maprange -- one telemetry read feeding one sorted emit
	_ = 0
}
`)
	ig := collectIgnores(pkg, ignoreKnown)
	if len(ig.malformed) != 0 {
		t.Fatalf("unexpected malformed findings: %v", ig.malformed)
	}
	// The directive is on line 4 and covers line 5 (the line below).
	for _, name := range []string{"wallclock", "maprange"} {
		if !ig.suppresses(finding(name, 5)) {
			t.Errorf("%s not suppressed on the directive's next line", name)
		}
	}
	if ig.suppresses(finding("goscheduler", 5)) {
		t.Error("goscheduler suppressed without being named")
	}
	if ig.suppresses(finding("wallclock", 7)) {
		t.Error("suppression leaked past the directive's line span")
	}
}

func TestIgnoreUnknownAnalyzer(t *testing.T) {
	pkg := parseIgnoreFixture(t, `package fix

//tlvet:ignore wallclock, nosuchcheck -- reason text
var x = 0
`)
	ig := collectIgnores(pkg, ignoreKnown)
	if len(ig.malformed) != 1 {
		t.Fatalf("got %d malformed findings, want 1: %v", len(ig.malformed), ig.malformed)
	}
	if !strings.Contains(ig.malformed[0].Message, `unknown analyzer "nosuchcheck"`) {
		t.Errorf("malformed message = %q, want it to name nosuchcheck", ig.malformed[0].Message)
	}
	// The known half of the list still takes effect.
	if !ig.suppresses(finding("wallclock", 4)) {
		t.Error("valid analyzer in a partly-bad list not suppressed")
	}
}

func TestIgnoreMissingReason(t *testing.T) {
	for _, src := range []string{
		"package fix\n\n//tlvet:ignore wallclock\nvar x = 0\n",
		"package fix\n\n//tlvet:ignore wallclock --\nvar x = 0\n",
		"package fix\n\n//tlvet:ignore wallclock --   \nvar x = 0\n",
	} {
		pkg := parseIgnoreFixture(t, src)
		ig := collectIgnores(pkg, ignoreKnown)
		if len(ig.malformed) != 1 {
			t.Fatalf("got %d malformed findings for %q, want 1", len(ig.malformed), src)
		}
		if !strings.Contains(ig.malformed[0].Message, "needs a reason") {
			t.Errorf("malformed message = %q, want reason complaint", ig.malformed[0].Message)
		}
		if ig.suppresses(finding("wallclock", 4)) {
			t.Error("reasonless directive must not suppress anything")
		}
	}
}

func TestIgnoreFileLevelVsLineLevel(t *testing.T) {
	pkg := parseIgnoreFixture(t, `package fix

//tlvet:ignore-file maprange -- fixture package: every range here is order-free

func f() {
	//tlvet:ignore wallclock -- one sanctioned telemetry read
	_ = 0
}

func g() {
	_ = 1
}
`)
	ig := collectIgnores(pkg, ignoreKnown)
	if len(ig.malformed) != 0 {
		t.Fatalf("unexpected malformed findings: %v", ig.malformed)
	}
	// File-level: maprange is suppressed on every line, including far
	// from the directive.
	for _, line := range []int{3, 7, 11} {
		if !ig.suppresses(finding("maprange", line)) {
			t.Errorf("file-level maprange suppression missing on line %d", line)
		}
	}
	// Line-level: wallclock is only covered adjacent to its directive.
	if !ig.suppresses(finding("wallclock", 7)) {
		t.Error("line-level wallclock suppression missing on its own line")
	}
	if ig.suppresses(finding("wallclock", 11)) {
		t.Error("line-level wallclock suppression must not act file-wide")
	}
	// The file-level directive must not widen to unnamed analyzers.
	if ig.suppresses(finding("goscheduler", 7)) {
		t.Error("goscheduler suppressed by directives that never name it")
	}
}

// TestIgnoreFilePrefixPrecedence guards the parse-order subtlety: the
// plain ignore prefix is a prefix of ignore-file, so the file form must
// not be misread as a line ignore of the analyzer "-file ...".
func TestIgnoreFilePrefixPrecedence(t *testing.T) {
	pkg := parseIgnoreFixture(t, `package fix

//tlvet:ignore-file wallclock -- whole file is a clock fixture
var x = 0
`)
	ig := collectIgnores(pkg, ignoreKnown)
	if len(ig.malformed) != 0 {
		t.Fatalf("ignore-file parsed as malformed line directive: %v", ig.malformed)
	}
	if !ig.suppresses(finding("wallclock", 42)) {
		t.Error("ignore-file directive did not register file-wide")
	}
}

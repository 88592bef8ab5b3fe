package checks

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestGolden runs each analyzer over its testdata fixture and checks
// the findings against the fixture's // want assertions. Fixtures are
// loaded under fake import paths so path-scoped analyzers (stagedep,
// wallclock, goscheduler) treat them as the packages they impersonate.
func TestGolden(t *testing.T) {
	cases := []struct {
		analyzer *analysis.Analyzer
		dir      string
		fakePath string
	}{
		{DroppedErr, "droppederr", "repro/internal/analysis/checks/testdata/droppederr"},
		{DroppedErr, "ignore", "repro/internal/analysis/checks/testdata/ignore"},
		{StageDep, "stagedep", "repro/internal/pipeline/testfixture"},
		{StageDep, "servedep", "repro/internal/serve/testfixture"},
		{StageDep, "serveimport", "repro/internal/experiments/testfixture"},
		{WallClock, "wallclock", "repro/internal/solver/testfixture"},
		{WallClock, "wallclockpool", "repro/internal/linalg/testfixture"},
		{MapRange, "maprange", "repro/internal/analysis/checks/testdata/maprange"},
		{CtxProp, "ctxprop", "repro/internal/analysis/checks/testdata/ctxprop"},
		{GoScheduler, "goscheduler", "repro/internal/pipeline/testfixture"},
	}
	for _, c := range cases {
		t.Run(c.dir, func(t *testing.T) {
			pkg, err := analysis.LoadDir("testdata/"+c.dir, c.fakePath)
			if err != nil {
				t.Fatal(err)
			}
			findings := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{c.analyzer}, Names())
			checkWants(t, pkg, findings)
		})
	}
}

// wantRe matches one expectation literal: a double-quoted Go string or
// a backquoted raw string, each holding a regexp.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants extracts // want assertions from the fixture's comments.
// Grammar: the first occurrence of the word "want" in a comment starts
// the assertion list; every string literal after it is a regexp that
// must match one finding on the comment's line.
func parseWants(pkg *analysis.Package) (map[string][]*regexp.Regexp, error) {
	wants := make(map[string][]*regexp.Regexp) // "file:line" -> expectations
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				_, rest, ok := strings.Cut(c.Text, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, lit := range wantRe.FindAllString(rest, -1) {
					pattern := strings.Trim(lit, "`")
					if strings.HasPrefix(lit, `"`) {
						var err error
						pattern, err = strconv.Unquote(lit)
						if err != nil {
							return nil, fmt.Errorf("%s: bad want literal %s: %v", key, lit, err)
						}
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp %s: %v", key, lit, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants, nil
}

func checkWants(t *testing.T, pkg *analysis.Package, findings []analysis.Finding) {
	t.Helper()
	wants, err := parseWants(pkg)
	if err != nil {
		t.Fatal(err)
	}
	matched := make(map[string][]bool)
	for key, res := range wants {
		matched[key] = make([]bool, len(res))
	}
	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.File, f.Line)
		found := false
		for i, re := range wants[key] {
			if !matched[key][i] && re.MatchString(f.Message) {
				matched[key][i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for key, res := range wants {
		for i, re := range res {
			if !matched[key][i] {
				t.Errorf("%s: expected finding matching %q, got none", key, re)
			}
		}
	}
}

// TestModuleIsClean runs the full suite over the repository itself and
// requires zero findings: tlvet gating check.sh only works if the tree
// stays self-clean.
func TestModuleIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	pkgs, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range analysis.Run(pkgs, All(), Names()) {
		t.Error(f.String())
	}
}

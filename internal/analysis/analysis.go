// Package analysis is the stdlib-only static-analysis framework behind
// cmd/tlvet. It loads every package in the module with go/parser and
// go/types and runs a suite of Thistle-specific analyzers over the
// typed ASTs — checks that encode invariants go vet cannot know about,
// such as the package layering rules or the solve path's wall-clock
// ban.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// analysis package (Analyzer, Pass, Reportf) so the checks would port
// to the real driver with minimal churn, but it depends only on the
// standard library: packages are typechecked with the gc export-data
// importer for the standard library and a recursive source loader for
// module-internal imports.
//
// Beyond per-package syntax walks, every Pass carries a Module: the
// static callgraph over all loaded packages with one FuncNode summary
// per function declaration. Module.Transitive propagates facts such as
// "reads the wall clock" caller-ward through that graph (stopping at
// analyzer-defined barrier functions) and reconstructs witness chains
// for diagnostics, so a flow-aware analyzer (wallclock) can reason past
// the current package's boundary.
//
// Findings can be suppressed with
//
//	//tlvet:ignore <analyzer>[, <analyzer>...] -- <reason>
//
// on the offending line or the line directly above it, or for a whole
// file with //tlvet:ignore-file at any comment position in it. The
// reason is mandatory and the analyzer names must exist; a bare or
// misspelled suppression is itself a finding. The driver renders the
// surviving findings as text or JSON.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one named check. Run receives a fully typechecked
// package and reports findings through the Pass.
type Analyzer struct {
	// Name is the identifier used in findings and //tlvet:ignore
	// directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass)
}

// A Pass carries one typechecked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Module is the cross-package view of the run: every loaded
	// package, the static callgraph over them, and the Transitive fact
	// machinery. The wallclock analyzer consults it to reason past the
	// current package's boundary.
	Module *Module

	findings *[]Finding
}

// Files returns the package's parsed non-test files.
func (p *Pass) Files() []*ast.File { return p.Pkg.Files }

// TypesInfo returns the package's type information.
func (p *Pass) TypesInfo() *types.Info { return p.Pkg.Info }

// Path returns the package's import path (e.g. repro/internal/gp).
// Golden-file tests load testdata directories under fake
// module-internal paths so path-scoped analyzers fire on them.
func (p *Pass) Path() string { return p.Pkg.Path }

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
	})
}

// A Finding is one analyzer diagnostic.
type Finding struct {
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
}

// String renders the canonical file:line: [analyzer] message form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Analyzer, f.Message)
}

// Run executes analyzers over pkgs, applies //tlvet:ignore suppression,
// and returns the surviving findings sorted by position. knownNames
// must list every analyzer name the tool ships (not just the enabled
// subset) so that -only runs don't misreport ignores of disabled
// analyzers as unknown.
func Run(pkgs []*Package, analyzers []*Analyzer, knownNames map[string]bool) []Finding {
	module := BuildModule(pkgs)
	var out []Finding
	for _, pkg := range pkgs {
		var findings []Finding
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, Module: module, findings: &findings}
			a.Run(pass)
		}
		ig := collectIgnores(pkg, knownNames)
		out = append(out, ig.malformed...)
		for _, f := range findings {
			if !ig.suppresses(f) {
				out = append(out, f)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out
}

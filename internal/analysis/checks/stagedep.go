package checks

import (
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// StageDep enforces the repository's cross-package layering as a set of
// path-scoped import rules:
//
//   - files in repro/internal/pipeline (the staged Enumerate→…→Select
//     engine) may only import downward — the numeric and modeling
//     packages of its allowlist — never the core facade, the
//     experiments driver, or a command. An upward import would recreate
//     the cycle the pipeline extraction removed (core wraps pipeline,
//     not the reverse) and let stage code reach around the facade's
//     caching and event emission.
//   - files in repro/internal/serve (the thistled HTTP service) may
//     import the optimizer stack it fronts (core, pipeline, cache, obs,
//     specs, workloads, ...) but not the figure-regeneration
//     experiments or the CLI runtime: the service layer sits beside the
//     commands, below cliutil's flag plumbing.
//   - nothing except the commands (repro/cmd/...) may import
//     repro/internal/serve: the service is a leaf of the internal
//     graph, so no library layer can grow a dependency on HTTP types.
var StageDep = &analysis.Analyzer{
	Name: "stagedep",
	Doc:  "cross-package layering: pipeline and serve import only downward, and only commands import serve",
	Run:  runStageDep,
}

// stageDepRule scopes an import allowlist to one package subtree: files
// whose package path is under Scope may import module-internal packages
// only from Allowed (each with its subpackages) and their own subtree.
type stageDepRule struct {
	Scope   string   // package path the rule applies to (and below)
	Name    string   // how findings name the scoped package
	Allowed []string // permitted module-internal import prefixes
}

var stageDepRules = []stageDepRule{
	{
		Scope: "repro/internal/pipeline",
		Name:  "pipeline",
		Allowed: []string{
			"repro/internal/arch",
			"repro/internal/cache",
			"repro/internal/dataflow",
			"repro/internal/expr",
			"repro/internal/floats",
			"repro/internal/gp",
			"repro/internal/linalg",
			"repro/internal/loopnest",
			"repro/internal/model",
			"repro/internal/obs",
			"repro/internal/solver",
		},
	},
	{
		Scope: "repro/internal/serve",
		Name:  "serve",
		Allowed: []string{
			"repro/internal/arch",
			"repro/internal/cache",
			"repro/internal/core",
			"repro/internal/loopnest",
			"repro/internal/model",
			"repro/internal/obs",
			"repro/internal/pipeline",
			"repro/internal/specs",
			"repro/internal/workloads",
			"repro/internal/yamlite",
		},
	},
}

// stageDepServePkg is the service package no library layer may import;
// only commands (repro/cmd/...) may depend on it.
const stageDepServePkg = "repro/internal/serve"

func underPath(path, prefix string) bool {
	return path == prefix || strings.HasPrefix(path, prefix+"/")
}

func stageDepAllowed(rule stageDepRule, path string) bool {
	for _, p := range rule.Allowed {
		if underPath(path, p) {
			return true
		}
	}
	return false
}

func runStageDep(pass *analysis.Pass) {
	var rule *stageDepRule
	for i := range stageDepRules {
		if underPath(pass.Path(), stageDepRules[i].Scope) {
			rule = &stageDepRules[i]
			break
		}
	}
	// Outside every scoped subtree the only constraint is the serve
	// leaf rule; commands are exempt from it.
	serveImportOK := (rule != nil && rule.Scope == stageDepServePkg) ||
		strings.HasPrefix(pass.Path(), "repro/cmd/")

	for _, file := range pass.Files() {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			// The standard library is always fine; only module-internal
			// imports are layered.
			if !strings.HasPrefix(path, "repro/") {
				continue
			}
			if underPath(path, stageDepServePkg) && !serveImportOK {
				pass.Reportf(imp.Path.Pos(),
					"%s imports %s; the serve layer is a leaf of the internal graph — only commands (repro/cmd/...) may import it",
					pass.Path(), path)
				continue
			}
			if rule == nil || underPath(path, rule.Scope) {
				continue
			}
			if stageDepAllowed(*rule, path) {
				continue
			}
			pass.Reportf(imp.Path.Pos(),
				"%s imports %s, which is above it in the layering; %s may only import downward (%s)",
				rule.Name, path, rule.Name, strings.Join(shortNames(rule.Allowed), "/"))
		}
	}
}

// shortNames strips the repro/internal/ prefix for a compact message.
func shortNames(paths []string) []string {
	out := make([]string, len(paths))
	for i, p := range paths {
		out[i] = strings.TrimPrefix(p, "repro/internal/")
	}
	return out
}

// Package checks holds the tlvet analyzers: project-specific semantic
// invariants of the Thistle reproduction that go vet cannot know
// about. Each analyzer is documented on its declaration; the registry
// below is the single source of truth for what cmd/tlvet runs.
package checks

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// All returns the full analyzer suite in stable order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		CtxProp,
		DroppedErr,
		EventFields,
		GoScheduler,
		MapRange,
		StageDep,
		WallClock,
	}
}

// Names returns the set of analyzer names, for ignore-directive
// validation.
func Names() map[string]bool {
	names := make(map[string]bool)
	for _, a := range All() {
		names[a.Name] = true
	}
	return names
}

// calleeFunc resolves a call's static callee, or nil for calls through
// function values, builtins, and type conversions. It is the
// per-expression twin of the callgraph's analysis.StaticCallee.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return analysis.StaticCallee(info, call)
}

// underBasic returns the underlying *types.Basic of t, or nil.
func underBasic(t types.Type) *types.Basic {
	if t == nil {
		return nil
	}
	b, _ := t.Underlying().(*types.Basic)
	return b
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the flow-aware half of the framework: a module-wide
// static callgraph plus per-function control-flow summaries, built once
// per Run over every loaded package. Analyzers that need to reason
// across function and package boundaries ("does anything reachable from
// Solve read the wall clock?") consult the Module on their Pass instead
// of re-walking ASTs themselves.

// A CallSite is one static call recorded in a function summary. Callee
// is nil for calls through function values, builtins, and type
// conversions — the callgraph is deliberately call-by-declared-name
// only, which is sound for the invariants tlvet enforces (a dynamic
// call that launders a clock read past the analyzer is a code smell the
// reviewer owns).
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
}

// A FuncNode is the control-flow summary of one declared function:
// every static call site in source order, including calls inside
// nested function literals, which execute — if at all — on behalf of
// the declaring function.
type FuncNode struct {
	Fn *types.Func
	// Calls lists static call sites in source order, nested literals
	// included.
	Calls []CallSite
}

// A Module is the cross-package view of one analysis run: the
// callgraph over all loaded packages (targets plus their
// module-internal dependencies). Facts — transitively propagated properties such
// as "reads the wall clock" — are computed on demand with Transitive.
type Module struct {
	// Funcs indexes the summary of every function declared in the
	// loaded packages.
	Funcs map[*types.Func]*FuncNode
	// nodes is Funcs in deterministic (load, then source) order, so
	// fact propagation and witness chains are stable run to run.
	nodes []*FuncNode
	// callers holds reverse callgraph edges: callee -> calling nodes.
	callers map[*types.Func][]*FuncNode
}

// StaticCallee resolves a call's static callee, or nil for calls
// through function values, builtins, and type conversions.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// BuildModule summarizes pkgs (and the module-internal dependencies
// recorded on them by the loader) into a callgraph-backed Module.
func BuildModule(pkgs []*Package) *Module {
	seen := make(map[string]bool)
	var all []*Package
	add := func(p *Package) {
		if p != nil && !seen[p.Path] {
			seen[p.Path] = true
			all = append(all, p)
		}
	}
	for _, p := range pkgs {
		add(p)
	}
	for _, p := range pkgs {
		for _, d := range p.Deps {
			add(d)
		}
	}

	m := &Module{
		Funcs:   make(map[*types.Func]*FuncNode),
		callers: make(map[*types.Func][]*FuncNode),
	}
	for _, pkg := range all {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := &FuncNode{Fn: fn}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						node.Calls = append(node.Calls, CallSite{
							Callee: StaticCallee(pkg.Info, call),
							Pos:    call.Pos(),
						})
					}
					return true
				})
				m.Funcs[fn] = node
				m.nodes = append(m.nodes, node)
			}
		}
	}
	for _, node := range m.nodes {
		linked := make(map[*types.Func]bool)
		for _, c := range node.Calls {
			if c.Callee == nil || linked[c.Callee] {
				continue
			}
			linked[c.Callee] = true
			m.callers[c.Callee] = append(m.callers[c.Callee], node)
		}
	}
	return m
}

// A Fact is one transitively propagated function property ("reaches a
// call satisfying some predicate"). Has answers membership; Why
// reconstructs a deterministic witness chain for diagnostics.
type Fact struct {
	module *Module
	// site is the direct call site establishing the property for
	// functions that satisfy it themselves.
	site map[*types.Func]CallSite
	// via is the callee through which an indirect holder inherited the
	// property.
	via map[*types.Func]*types.Func
}

// Transitive computes the set of functions from which a call satisfying
// direct is reachable through the static callgraph. Propagation does
// not cross functions for which barrier reports true: a barrier
// function may hold the fact itself, but its callers do not inherit it
// through that edge. barrier may be nil.
func (m *Module) Transitive(direct func(c CallSite) bool, barrier func(fn *types.Func) bool) *Fact {
	f := &Fact{
		module: m,
		site:   make(map[*types.Func]CallSite),
		via:    make(map[*types.Func]*types.Func),
	}
	var queue []*types.Func
	for _, node := range m.nodes {
		for _, c := range node.Calls {
			if direct(c) {
				f.site[node.Fn] = c
				queue = append(queue, node.Fn)
				break
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		if barrier != nil && barrier(fn) {
			continue // holders behind the barrier don't propagate
		}
		for _, caller := range m.callers[fn] {
			if _, ok := f.site[caller.Fn]; ok {
				continue
			}
			if _, ok := f.via[caller.Fn]; ok {
				continue
			}
			f.via[caller.Fn] = fn
			queue = append(queue, caller.Fn)
		}
	}
	return f
}

// Has reports whether fn holds the fact, directly or transitively.
func (f *Fact) Has(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if _, ok := f.site[fn]; ok {
		return true
	}
	_, ok := f.via[fn]
	return ok
}

// Why returns the witness call chain from fn to the function that
// satisfies the fact directly: fn itself first, the direct holder
// last. It returns nil when fn does not hold the fact.
func (f *Fact) Why(fn *types.Func) []*types.Func {
	if !f.Has(fn) {
		return nil
	}
	var chain []*types.Func
	for fn != nil {
		chain = append(chain, fn)
		if _, ok := f.site[fn]; ok {
			break
		}
		fn = f.via[fn]
	}
	return chain
}

// Site returns the direct call site that establishes the fact for the
// chain ending at Why(fn)'s last element.
func (f *Fact) Site(fn *types.Func) (CallSite, bool) {
	chain := f.Why(fn)
	if len(chain) == 0 {
		return CallSite{}, false
	}
	c, ok := f.site[chain[len(chain)-1]]
	return c, ok
}

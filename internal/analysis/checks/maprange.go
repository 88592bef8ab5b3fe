package checks

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"repro/internal/analysis"
)

// MapRange flags map iteration whose per-iteration values escape into
// ordered output: Go's map iteration order is deliberately randomized,
// so a range over a map that feeds an Emit call, a serialization
// encoder, printed output, or a slice append without a later sort makes
// every emitted artifact — event streams, manifests, traces — differ
// run to run. The repo's regression gates diff those artifacts byte for
// byte; one unsorted map range upstream of them is a flaky gate.
//
// Three sinks are checked inside the loop body, each only when the
// tainted expression mentions the range's key or value variable:
//
//   - calls to a method named Emit or Encode (event emission, JSON
//     encoders);
//   - fmt printing functions (Print/Fprint/Sprint families);
//   - append to a slice declared outside the loop, a variable or a
//     field of one (s.Names), unless the slice is later passed to a
//     sort.* or slices.* call in the same function ("intervening sort" —
//     collect-then-sort is the sanctioned idiom).
//
// Commutative uses (summing values, building another map, counting) do
// not hit a sink and pass untouched.
var MapRange = &analysis.Analyzer{
	Name: "maprange",
	Doc:  "map iteration must not feed Emit/serialization/printing or unsorted slice appends",
	Run:  runMapRange,
}

func runMapRange(pass *analysis.Pass) {
	info := pass.TypesInfo()
	for _, file := range pass.Files() {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := info.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, fd, rng)
				return true
			})
		}
	}
}

func checkMapRange(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	info := pass.TypesInfo()

	// The loop variables whose values carry iteration order.
	loopVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				loopVars[obj] = true
			}
		}
	}
	if len(loopVars) == 0 {
		return // bare `for range m` carries no per-iteration data
	}
	tainted := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && loopVars[info.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	anyTainted := func(es []ast.Expr) bool {
		for _, e := range es {
			if tainted(e) {
				return true
			}
		}
		return false
	}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			fn := calleeFunc(info, n)
			if fn == nil {
				return true
			}
			switch {
			case (fn.Name() == "Emit" || fn.Name() == "Encode") && anyTainted(n.Args):
				pass.Reportf(n.Pos(),
					"%s iterates a map and passes iteration-dependent values to %s; map order is randomized — collect and sort first",
					fd.Name.Name, fn.Name())
			case isFmtPrinter(fn) && anyTainted(n.Args):
				pass.Reportf(n.Pos(),
					"%s prints values inside a map range via fmt.%s; output order is randomized — collect and sort first",
					fd.Name.Name, fn.Name())
			}
		case *ast.AssignStmt:
			checkMapRangeAppend(pass, fd, rng, n, tainted)
		}
		return true
	})
}

// checkMapRangeAppend flags `s = append(s, <tainted>)` where s, a
// variable or a field of one, is declared outside the range loop and
// never sorted afterwards in the same function.
func checkMapRangeAppend(pass *analysis.Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt, tainted func(ast.Expr) bool) {
	info := pass.TypesInfo()
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(as.Lhs) <= i {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			continue
		}
		if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
			continue // a local function shadowing append
		}
		if !tainted(call) {
			continue
		}
		target := objPath(info, as.Lhs[i])
		if target == nil {
			continue // appending into a map element: order still unmaterialized
		}
		if target[0].Pos() >= rng.Pos() {
			continue // slice scoped to the loop body: per-key, order-free
		}
		if sortedAfter(info, fd, rng, target) {
			continue
		}
		pass.Reportf(as.Pos(),
			"%s appends map-iteration values to %s without a later sort; the slice's order is randomized — sort it (sort.Slice / slices.Sort*) before it escapes",
			fd.Name.Name, types.ExprString(as.Lhs[i]))
	}
}

// objPath names the slice an expression denotes: its variable, then the
// fields selected from it (s.a.b gives s, a, b). It is nil for any
// other expression, such as a map or slice element.
func objPath(info *types.Info, e ast.Expr) []types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return nil
		}
		return []types.Object{obj}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			return nil
		}
		if base := objPath(info, e.X); base != nil {
			return append(base, sel.Obj())
		}
	}
	return nil
}

// sortedAfter reports whether the slice named by target (see objPath)
// is passed to a sort.* or slices.* call positioned after the range
// loop in fd's body.
func sortedAfter(info *types.Info, fd *ast.FuncDecl, rng *ast.RangeStmt, target []types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := calleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if slices.Equal(objPath(info, arg), target) {
				found = true
			}
		}
		return true
	})
	return found
}

// isFmtPrinter reports whether fn is one of fmt's printing functions.
func isFmtPrinter(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "fmt" &&
		(strings.HasPrefix(fn.Name(), "Print") ||
			strings.HasPrefix(fn.Name(), "Fprint") ||
			strings.HasPrefix(fn.Name(), "Sprint"))
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one parsed and typechecked package, analyzer-ready.
// Test files (_test.go) are excluded: the analyzers enforce production
// invariants, and test code routinely compares floats exactly or drops
// errors on purpose.
type Package struct {
	Path  string // import path, e.g. repro/internal/gp
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Deps holds the module-internal packages loaded to satisfy this
	// package's imports (transitively), in path order. LoadModule
	// leaves it empty — every module package is already a sibling — but
	// LoadDir fills it so BuildModule can summarize fixture dependencies
	// and cross-package facts resolve in golden tests.
	Deps []*Package
}

// loader typechecks module packages from source, resolving standard
// library imports through the gc export-data importer (compiled export
// data; loading net/http this way takes ~200ms versus seconds for the
// source importer) and module-internal imports recursively through
// itself.
type loader struct {
	fset    *token.FileSet
	modRoot string
	modPath string
	std     types.Importer
	pkgs    map[string]*Package
	loading map[string]bool
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modRoot: modRoot,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "gc", nil),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

func (l *loader) loadPath(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
	return l.loadDir(filepath.Join(l.modRoot, filepath.FromSlash(rel)), path)
}

// loadDir parses and typechecks the package in dir, registering it
// under importPath. importPath need not correspond to dir's real
// location: golden-file tests load testdata directories under fake
// module-internal paths so path-scoped analyzers treat them as the
// packages they impersonate.
func (l *loader) loadDir(dir, importPath string) (*Package, error) {
	if l.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	l.loading[importPath] = true
	defer delete(l.loading, importPath)

	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no non-test Go files", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:  importPath,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// goSources lists dir's buildable non-test Go files, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, "_") || strings.HasPrefix(name, ".") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// FindModuleRoot walks up from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from root's go.mod.
func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod: no module directive", root)
}

// LoadModule loads every package under the module rooted at or above
// dir, in deterministic import-path order. Directories named testdata
// or vendor, and hidden or underscore-prefixed directories, are
// skipped.
func LoadModule(dir string) ([]*Package, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)

	var paths []string
	err = filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		srcs, err := goSources(p)
		if err != nil {
			return err
		}
		if len(srcs) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, modPath)
		} else {
			paths = append(paths, modPath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)

	var pkgs []*Package
	for _, p := range paths {
		pkg, err := l.loadPath(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDir loads the single package in dir under the given import path,
// resolving its module-internal imports against the enclosing module.
// It exists for golden-file tests: a testdata package can impersonate
// a real package path (so path-scoped analyzers fire) without
// colliding with the real package, because each LoadDir call uses a
// fresh loader.
func LoadDir(dir, importPath string) (*Package, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)
	pkg, err := l.loadDir(dir, importPath)
	if err != nil {
		return nil, err
	}
	for path, dep := range l.pkgs {
		if path != importPath {
			pkg.Deps = append(pkg.Deps, dep)
		}
	}
	sort.Slice(pkg.Deps, func(i, j int) bool { return pkg.Deps[i].Path < pkg.Deps[j].Path })
	return pkg, nil
}

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

// Loader parses and type-checks packages from source. It resolves imports
// in three tiers:
//
//  1. paths inside the module (ModulePath non-empty, path == ModulePath or
//     under ModulePath+"/") map to directories under Root;
//  2. with ModulePath empty (the GOPATH-style testdata roots the analyzer
//     golden tests use), any bare path whose directory exists under Root
//     resolves there;
//  3. everything else goes to the standard library via go/importer's
//     source importer, which type-checks GOROOT source and needs no
//     network, module cache or build cache.
//
// Type-checking from source keeps dvelint self-contained: it works in a
// sandbox with nothing but the Go toolchain installed.
type Loader struct {
	Root       string // module root (tier 1) or src root (tier 2)
	ModulePath string // "" selects GOPATH-style resolution

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package
	// loading guards against import cycles, which go/types would otherwise
	// chase into a stack overflow before reporting.
	loading map[string]bool
}

// Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewLoader returns a loader rooted at root. modulePath is the module's
// path from go.mod, or "" for a GOPATH-style source tree.
func NewLoader(root, modulePath string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		Root:       root,
		ModulePath: modulePath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
		loading:    map[string]bool{},
	}
}

// dirFor resolves an import path to a source directory, or "" if the path
// is not ours (i.e. standard library).
func (l *Loader) dirFor(path string) string {
	switch {
	case l.ModulePath == "":
		d := filepath.Join(l.Root, filepath.FromSlash(path))
		if st, err := os.Stat(d); err == nil && st.IsDir() {
			return d
		}
		return ""
	case path == l.ModulePath:
		return l.Root
	case strings.HasPrefix(path, l.ModulePath+"/"):
		return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
	}
	return ""
}

// Load parses and type-checks the package at the import path, loading
// intra-module dependencies recursively and standard-library dependencies
// from GOROOT source. Results are cached per loader.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("analysis: cannot resolve package %q under %s", path, l.Root)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: importerFunc(func(ipath string) (*types.Package, error) {
		if l.dirFor(ipath) != "" {
			dep, err := l.Load(ipath)
			if err != nil {
				return nil, err
			}
			return dep.Types, nil
		}
		return l.std.Import(ipath)
	})}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses every non-test Go file in dir, in filename order so that
// positions, and therefore diagnostic order, are deterministic.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

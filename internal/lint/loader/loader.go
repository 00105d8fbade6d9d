// Package loader parses and typechecks the packages of this module using
// only the standard library (go/parser + go/types with the source
// importer), so the lint suite needs no dependency on golang.org/x/tools.
//
// The loader resolves imports in three tiers: "unsafe" maps to
// types.Unsafe, paths inside this module are parsed and typechecked from
// source under the module root, and everything else is delegated to the
// standard library's source importer (which compiles the stdlib from
// GOROOT source — no build cache or network required). Packages are cached
// per loader, so one process-wide loader amortizes the stdlib typecheck
// across the analyzer tests and the clean-tree meta-test.
package loader

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and typechecked package of the module (or a test
// fixture registered with RegisterDir).
type Package struct {
	Path  string // import path ("kite/internal/netback")
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File // non-test files, parsed with comments
	Types *types.Package
	Info  *types.Info
}

// Loader loads module packages from source. It is not safe for concurrent
// use; share one via sync.Once when tests need a common cache.
type Loader struct {
	fset       *token.FileSet
	ModuleRoot string
	ModulePath string
	std        types.Importer
	pkgs       map[string]*Package // loaded module packages by import path
	dirs       map[string]string   // extra import path -> dir (fixtures)
	loading    map[string]bool     // import cycle guard
}

// New returns a loader rooted at the module containing dir (found by
// walking up to go.mod).
func New(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		ModuleRoot: root,
		ModulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		dirs:       make(map[string]string),
		loading:    make(map[string]bool),
	}, nil
}

func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(gomod); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("loader: no module line in %s", gomod)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("loader: no go.mod above %s", dir)
		}
		d = parent
	}
}

// Fset returns the shared file set.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Loaded returns every module package typechecked so far, in load order.
func (l *Loader) Loaded() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// RegisterDir maps an extra import path (outside the normal module layout,
// e.g. a testdata fixture) onto a directory. The path should start with
// the module path so analyzers treat the fixture as module-internal.
func (l *Loader) RegisterDir(importPath, dir string) { l.dirs[importPath] = dir }

// inModule reports whether an import path belongs to this module.
func (l *Loader) inModule(path string) bool {
	if _, ok := l.dirs[path]; ok {
		return true
	}
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(path string) string {
	if d, ok := l.dirs[path]; ok {
		return d
	}
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	return filepath.Join(l.ModuleRoot, strings.TrimPrefix(path, l.ModulePath+"/"))
}

// Import implements types.Importer over the three tiers.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.inModule(path) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// Load parses and typechecks one module package by import path (cached).
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("loader: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("loader: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if !goSource(dir, e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("loader: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("loader: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	cfg := types.Config{Importer: l}
	tpkg, err := cfg.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("loader: typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// LoadAll loads every package under the module root (the "./..." pattern),
// skipping testdata, hidden directories, and directories with no non-test
// Go files. Results are sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.ModuleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if !hasGoFiles(p) {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, p)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if goSource(dir, e) {
			return true
		}
	}
	return false
}

// goSource reports whether e is a non-test Go file of dir that the host's
// build compiles: its name's _GOOS/_GOARCH suffix and its //go:build line
// match (a file that says //go:build !linux is another platform's stub). A
// file whose constraint cannot be read is kept, so the parser reports it.
func goSource(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return ok || err != nil
}

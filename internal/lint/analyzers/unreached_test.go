package analyzers_test

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"kite/internal/lint/analysis"
	"kite/internal/lint/analyzers"
	"kite/internal/lint/loader"
)

// TestUnreached holds the module to one rule: a non-test function is
// reached from the product — a main under cmd/ or examples/, the root kite
// package's exported functions, an init or a package-level initializer —
// or from an entry of internal/lint/unreached.txt, which gives each entry
// its verdict:
//
//	internal/xen.Domain.LiveGrants  oracle TestGrantLifecycle
//	internal/sim.Cluster.SetWorkers bench-only
//
// "oracle" names the test that reads it (the test's file must mention the
// function); "bench-only" means benchmark/'s main reaches it, and it goes
// when benchmark/ stops calling it. Anything else nothing reaches is
// deleted. The list is held exactly: a function that only tests call fails
// here the day it lands, and an entry the product, or another entry,
// starts to reach must leave the list.
//
// Reachability walks the class-hierarchy call graph hotpath builds
// (calleesOf) and adds two edges it cannot see: every function whose value
// is taken (a callback, a method value) is reached, and every method of a
// type converted to an interface is reached, since the runtime or another
// package may call it there (String, Error, sort.Interface).
func TestUnreached(t *testing.T) {
	loaderMu.Lock()
	defer loaderMu.Unlock()
	l, err := loaderOnce()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	mod := analysis.NewModule(l.ModulePath, pkgs)
	benchPath := mod.Path + "/benchmark"

	// Every function outside benchmark/, by the name the list uses.
	funcs := make(map[string]*types.Func)
	product := newReach(mod)
	var benchPkg *loader.Package
	for _, pkg := range pkgs {
		if pkg.Path == benchPath {
			benchPkg = pkg
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && !(fd.Recv == nil && fd.Name.Name == "init") {
					fn := pkg.Info.Defs[fd.Name].(*types.Func)
					funcs[funcName(mod, fn)] = fn
				}
			}
		}
		rel := strings.TrimPrefix(pkg.Path, mod.Path+"/")
		product.roots(pkg, func(fd *ast.FuncDecl) bool {
			switch {
			case pkg.Path == mod.Path:
				return fd.Recv == nil && fd.Name.IsExported()
			case pkg.Types.Name() == "main" && (strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")):
				return fd.Recv == nil && fd.Name.Name == "main"
			}
			return false
		})
	}
	product.run()
	if benchPkg == nil {
		t.Fatalf("%s not loaded", benchPath)
	}
	bench := newReach(mod)
	bench.roots(benchPkg, func(fd *ast.FuncDecl) bool { return fd.Recv == nil && fd.Name.Name == "main" })
	bench.run()

	listed := readUnreachedList(t, "../unreached.txt")
	tests := testFuncs(t, l.ModuleRoot)
	// The walk goes on from the product's reach through the listed
	// entries; an entry that another entry's walk reaches is redundant.
	entries := make(map[*types.Func]string)
	for _, name := range sortedKeys(listed) {
		v := listed[name]
		fn, ok := funcs[name]
		switch {
		case !ok:
			t.Errorf("unreached.txt:%d: %s does not exist; drop it from the list", v.line, name)
			continue
		case product.seen[fn]:
			t.Errorf("unreached.txt:%d: %s is reached by the product; drop it from the list", v.line, name)
			continue
		}
		entries[fn] = name
		switch v.verdict {
		case "bench-only":
			if !bench.seen[fn] {
				t.Errorf("unreached.txt:%d: %s is marked bench-only, but benchmark/ does not reach it", v.line, name)
			}
		case "oracle":
			if bench.seen[fn] {
				t.Errorf("unreached.txt:%d: %s is marked oracle, but benchmark/ reaches it: mark it bench-only", v.line, name)
			}
			if src, ok := tests[v.test]; !ok {
				t.Errorf("unreached.txt:%d: %s names test %q, which does not exist", v.line, name, v.test)
			} else if !strings.Contains(src, fn.Name()) {
				t.Errorf("unreached.txt:%d: %s names test %s, whose file never mentions %s", v.line, name, v.test, fn.Name())
			}
		default:
			t.Errorf("unreached.txt:%d: %s: verdict %q is neither oracle nor bench-only", v.line, name, v.verdict)
		}
	}
	for fn := range entries {
		product.add(fn)
	}
	product.entries = entries
	product.run()
	for _, from := range sortedKeys(product.redundant) {
		to := product.redundant[from]
		t.Errorf("unreached.txt:%d: %s is reached from %s; drop it from the list", listed[to].line, to, from)
	}
	for _, name := range sortedKeys(funcs) {
		if fn := funcs[name]; !product.seen[fn] {
			t.Errorf("%s (%s): nothing reaches it; wire it into the product, delete it, or list it in internal/lint/unreached.txt",
				name, mod.Fset.Position(fn.Pos()))
		}
	}
}

// reach is a worklist walk over the module's functions.
type reach struct {
	mod   *analysis.Module
	seen  map[*types.Func]bool
	boxed map[*types.Named]bool // types whose methods are reached by a conversion to an interface
	work  []*types.Func

	// entries are the listed functions the walk started from; redundant
	// maps the name of a function that reached one to the entry's name.
	entries   map[*types.Func]string
	from      *types.Func
	redundant map[string]string
}

func newReach(mod *analysis.Module) *reach {
	return &reach{mod: mod, seen: make(map[*types.Func]bool), boxed: make(map[*types.Named]bool), redundant: make(map[string]string)}
}

// roots marks pkg's init functions, its package-level initializers and the
// declarations root selects.
func (r *reach) roots(pkg *loader.Package, root func(*ast.FuncDecl) bool) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if (d.Recv == nil && d.Name.Name == "init") || root(d) {
					r.add(pkg.Info.Defs[d.Name].(*types.Func))
				}
			case *ast.GenDecl:
				if d.Tok == token.VAR {
					for _, s := range d.Specs {
						r.scan(pkg, s, nil)
					}
				}
			}
		}
	}
}

func (r *reach) add(fn *types.Func) {
	fn = fn.Origin()
	if name, ok := r.entries[fn]; ok && r.from != nil && r.from != fn {
		r.redundant[funcName(r.mod, r.from)] = name
	}
	if r.seen[fn] || !r.mod.InModule(fn.Pkg()) {
		return
	}
	r.seen[fn] = true
	r.work = append(r.work, fn)
}

func (r *reach) run() {
	for len(r.work) > 0 {
		fn := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		r.from = fn
		if fd := r.mod.FuncDecl(fn); fd != nil && fd.Decl.Body != nil {
			r.scan(fd.Pkg, fd.Decl.Body, fn.Type().(*types.Signature))
		}
	}
}

// scan adds the call-graph edges out of node, whose enclosing function has
// signature sig (nil at package level).
func (r *reach) scan(pkg *loader.Package, node ast.Node, sig *types.Signature) {
	for _, fn := range analyzers.CalleesOf(r.mod, pkg, node) {
		r.add(fn)
	}
	r.refs(pkg, node, sig)
}

// refs adds the functions node takes the value of and the methods of the
// types it converts to an interface. Function literals are visited with
// their own signature, so a return inside one converts to its results.
func (r *reach) refs(pkg *loader.Package, node ast.Node, sig *types.Signature) {
	info := pkg.Info
	called := make(map[ast.Expr]bool)
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			r.refs(pkg, n.Body, info.TypeOf(n).(*types.Signature))
			return false
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				r.add(fn)
			}
		case *ast.SelectorExpr:
			// A method value of an interface (not a call, which
			// calleesOf resolves) reaches every implementation.
			if sel, ok := info.Selections[n]; ok && sel.Kind() != types.FieldVal && !called[n] {
				if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
					for _, impl := range r.mod.Implementers(iface, sel.Obj().Name()) {
						r.add(impl)
					}
				}
			}
		case *ast.CallExpr:
			r.call(info, n)
			called[ast.Unparen(n.Fun)] = true
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					r.box(info.TypeOf(n.Rhs[i]), info.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					r.box(info.TypeOf(v), info.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, e := range n.Results {
					r.box(info.TypeOf(e), sig.Results().At(i).Type())
				}
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				r.box(info.TypeOf(n.Value), ch.Elem())
			}
		case *ast.CompositeLit:
			r.lit(info, n)
		}
		return true
	})
}

// call boxes the arguments of one call or conversion into interface
// parameters.
func (r *reach) call(info *types.Info, call *ast.CallExpr) {
	tv := info.Types[ast.Unparen(call.Fun)]
	if tv.IsType() {
		if len(call.Args) == 1 {
			r.box(info.TypeOf(call.Args[0]), tv.Type)
		}
		return
	}
	if tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, a := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type()
			if s, ok := pt.Underlying().(*types.Slice); ok && !call.Ellipsis.IsValid() {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		r.box(info.TypeOf(a), pt)
	}
}

// lit boxes the elements of a composite literal into interface-typed
// fields, elements, keys or values.
func (r *reach) lit(info *types.Info, lit *ast.CompositeLit) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				for j := 0; j < u.NumFields(); j++ {
					if id, ok := kv.Key.(*ast.Ident); ok && u.Field(j).Name() == id.Name {
						r.box(info.TypeOf(kv.Value), u.Field(j).Type())
					}
				}
			} else if i < u.NumFields() {
				r.box(info.TypeOf(e), u.Field(i).Type())
			}
		}
	case *types.Slice, *types.Array, *types.Map:
		var key, elem types.Type
		switch u := u.(type) {
		case *types.Slice:
			elem = u.Elem()
		case *types.Array:
			elem = u.Elem()
		case *types.Map:
			key, elem = u.Key(), u.Elem()
		}
		for _, e := range lit.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				r.box(info.TypeOf(kv.Key), key)
				e = kv.Value
			}
			r.box(info.TypeOf(e), elem)
		}
	}
}

// box reaches every method of from when a value of it is converted to the
// interface type to.
func (r *reach) box(from, to types.Type) {
	if from == nil || to == nil || !types.IsInterface(to) || types.IsInterface(from) {
		return
	}
	if p, ok := from.(*types.Pointer); ok {
		from = p.Elem()
	}
	named, ok := from.(*types.Named)
	if !ok || r.boxed[named.Origin()] {
		return
	}
	r.boxed[named.Origin()] = true
	for _, t := range []types.Type{named, types.NewPointer(named)} {
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			r.add(ms.At(i).Obj().(*types.Func))
		}
	}
}

// funcName spells fn the way unreached.txt does: the package path under
// the module, then the receiver's type name for a method, then the name.
func funcName(mod *analysis.Module, fn *types.Func) string {
	name := strings.TrimPrefix(fn.Pkg().Path(), mod.Path+"/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name += t.(*types.Named).Obj().Name() + "."
	}
	return name + fn.Name()
}

// verdict is one entry of unreached.txt.
type verdict struct {
	verdict, test string
	line          int
}

// readUnreachedList parses "name verdict [test]" lines; # starts a comment.
func readUnreachedList(t *testing.T, path string) map[string]verdict {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]verdict)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text, _, _ := strings.Cut(sc.Text(), "#")
		fields := strings.Fields(text)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 || (fields[1] == "oracle") != (len(fields) == 3) || len(fields) > 3 {
			t.Fatalf("%s:%d: want \"name bench-only\" or \"name oracle TestName\", got %q", path, line, sc.Text())
		}
		if _, dup := out[fields[0]]; dup {
			t.Fatalf("%s:%d: %s listed twice", path, line, fields[0])
		}
		v := verdict{verdict: fields[1], line: line}
		if len(fields) == 3 {
			v.test = fields[2]
		}
		out[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

var testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)

// testFuncs maps each test and fuzz function in the module to the source
// of the file that declares it.
func testFuncs(t *testing.T, root string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range testFuncRe.FindAllStringSubmatch(string(src), -1) {
			out[m[1]] = string(src)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

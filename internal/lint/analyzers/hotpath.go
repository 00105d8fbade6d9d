package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"strings"

	"kite/internal/lint/analysis"
	"kite/internal/lint/loader"
)

// Hotpath proves the repository's zero-allocation contract statically: a
// function whose doc comment carries //kite:hotpath — and every function
// it statically calls inside this module, across package boundaries and
// through interface dispatch (class-hierarchy analysis) — must not
// allocate. The runtime tests (TestForwardPathZeroAlloc,
// TestBlockPathZeroAlloc) sample two concrete paths; this analyzer covers
// every path the compiler can see.
//
// Forbidden operations: make, new, &T{...}, slice/map composite literals,
// closures, string concatenation and string<->[]byte conversions, map
// inserts, appends that can grow, boxing a concrete value that is not
// pointer-shaped into an interface, and calls into packages outside the
// module (which cannot be vetted) other than a small pure allowlist.
//
// Three escapes keep the rule honest rather than unusable:
//
//   - The high-water scratch idiom is recognized automatically: an append
//     whose destination is a struct field (`p.free = append(p.free, b)`)
//     or a local resliced from one (`reqs := q.txReqs[:0]; reqs =
//     append(reqs, r)`) allocates only until the scratch reaches its
//     high-water mark, which the runtime tests pin at zero steady-state.
//   - Blocks that terminate by panicking or by returning a non-nil error
//     are cold: steady state never takes them.
//   - //kite:alloc-ok (with a mandatory reason) suppresses one line, and
//     //kite:coldpath excludes a warmup-only function from the descent.
var Hotpath = &analysis.Analyzer{
	Name: "hotpath",
	Doc:  "functions marked //kite:hotpath (and their module callees) must not allocate",
	Run:  runHotpath,
}

// extAllowlist holds the non-module packages hot paths may call: vetted
// allocation-free primitives only.
var extAllowlist = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
}

// extAllowed reports whether one non-module callee is allocation-vetted:
// an allowlisted package, or encoding/binary's fixed-width byte-order
// accessors (Uint16/PutUint64/...; not Read/Write/Append*, which allocate
// or grow).
func extAllowed(fn *types.Func) bool {
	if extAllowlist[fn.Pkg().Path()] {
		return true
	}
	if fn.Pkg().Path() == "encoding/binary" {
		name := fn.Name()
		return strings.HasPrefix(name, "Uint") || strings.HasPrefix(name, "PutUint")
	}
	return false
}

func runHotpath(pass *analysis.Pass) error {
	checked := make(map[*types.Func]bool)
	idx := make(map[*loader.Package]*directiveIndex)
	dirs := func(p *loader.Package) *directiveIndex {
		if idx[p] == nil {
			idx[p] = newDirectiveIndex(p)
		}
		return idx[p]
	}

	for _, file := range pass.Pkg.Files {
		for _, d := range file.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || !funcDirective(decl, "hotpath") {
				continue
			}
			root, ok := pass.Pkg.Info.Defs[decl.Name].(*types.Func)
			if !ok {
				continue
			}
			rootName := root.Name()
			if sig, ok := root.Type().(*types.Signature); ok && sig.Recv() != nil {
				rootName = types.TypeString(sig.Recv().Type(), types.RelativeTo(root.Pkg())) + "." + rootName
			}
			walkReachable(pass.Module, root,
				func(fn *types.Func, fd *analysis.FuncDecl) bool {
					if funcDirective(fd.Decl, "coldpath") {
						return false
					}
					if checked[fn] {
						return true // descend, but do not re-scan the body
					}
					checked[fn] = true
					scanHotBody(pass, fd, dirs(fd.Pkg), rootName)
					return true
				},
				func(from *analysis.FuncDecl, c callee) {
					if extAllowed(c.fn) || c.viaInterface {
						return
					}
					pkgPath := c.fn.Pkg().Path()
					d := dirs(from.Pkg)
					if coldAt(from, c.call.Pos()) || d.suppressed(c.call.Pos(), "alloc-ok") {
						return
					}
					pass.Reportf(c.call.Pos(),
						"hotpath: call to %s.%s, outside the module and not allocation-vetted (reached from %s)",
						pkgPath, c.fn.Name(), rootName)
				},
				nil)
		}
	}
	return nil
}

// coldRanges computes the position intervals of cold blocks in a function:
// if/case bodies that terminate by panicking or by returning a non-nil
// error. Steady-state hot iterations never execute them, so allocations
// there (fmt.Errorf and friends) do not break the contract.
type posRange struct{ from, to token.Pos }

func coldRanges(pkg *loader.Package, decl *ast.FuncDecl) []posRange {
	var out []posRange
	mark := func(stmts []ast.Stmt, from, to token.Pos) {
		if terminatesCold(pkg, stmts) {
			out = append(out, posRange{from, to})
		}
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.IfStmt:
			mark(s.Body.List, s.Body.Pos(), s.Body.End())
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				mark(blk.List, blk.Pos(), blk.End())
			}
		case *ast.CaseClause:
			mark(s.Body, s.Pos(), s.End())
		}
		return true
	})
	return out
}

func coldAt(fd *analysis.FuncDecl, pos token.Pos) bool {
	for _, r := range coldRanges(fd.Pkg, fd.Decl) {
		if r.from <= pos && pos <= r.to {
			return true
		}
	}
	return false
}

// terminatesCold reports whether a statement list ends in panic(...) or in
// a return carrying a non-nil error.
func terminatesCold(pkg *loader.Package, stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
	case *ast.ReturnStmt:
		for _, res := range last.Results {
			if isNilIdent(res) {
				continue
			}
			if tv, ok := pkg.Info.Types[res]; ok && isErrorType(tv.Type) {
				return true
			}
		}
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func isErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

// scanHotBody reports every allocating operation in one function body,
// modulo the cold-path and directive escapes.
func scanHotBody(pass *analysis.Pass, fd *analysis.FuncDecl, dirs *directiveIndex, root string) {
	pkg := fd.Pkg
	info := pkg.Info
	cold := coldRanges(pkg, fd.Decl)
	isCold := func(pos token.Pos) bool {
		for _, r := range cold {
			if r.from <= pos && pos <= r.to {
				return true
			}
		}
		return false
	}
	report := func(pos token.Pos, what string) {
		if isCold(pos) || dirs.suppressed(pos, "alloc-ok") {
			return
		}
		pass.Reportf(pos, "hotpath: %s in %s (reached from %s)", what, fd.Decl.Name.Name, root)
	}

	sanctionedAppends := highWaterAppends(pkg, fd.Decl)
	scratchOK := func(call *ast.CallExpr) bool { return sanctionedAppends[call] }

	ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.CallExpr:
			scanHotCall(info, e, report, scratchOK, isCold)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					report(e.Pos(), "heap allocation (&composite literal)")
				}
			}
		case *ast.CompositeLit:
			if tv, ok := info.Types[e]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					report(e.Pos(), "slice literal allocation")
				case *types.Map:
					report(e.Pos(), "map literal allocation")
				}
			}
		case *ast.FuncLit:
			report(e.Pos(), "closure allocation")
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				if tv, ok := info.Types[e]; ok && tv.Value == nil && isStringType(tv.Type) {
					report(e.Pos(), "string concatenation")
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range e.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if tv, ok := info.Types[ix.X]; ok {
						if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
							report(lhs.Pos(), "map insert")
						}
					}
				}
			}
			scanBoxing(info, e.Lhs, e.Rhs, report)
		case *ast.ReturnStmt:
			scanReturnBoxing(pkg, fd.Decl, e, report)
		}
		return true
	})
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// scanHotCall checks one call expression: allocating builtins, allocating
// conversions, and interface boxing of arguments.
func scanHotCall(info *types.Info, call *ast.CallExpr, report func(token.Pos, string),
	scratchOK func(*ast.CallExpr) bool, isCold func(token.Pos) bool) {

	fun := ast.Unparen(call.Fun)

	// Conversions: only those that copy memory allocate.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			dst := tv.Type
			if src, ok := info.Types[call.Args[0]]; ok && src.Value == nil {
				if allocatingConversion(src.Type, dst) {
					report(call.Pos(), "allocating conversion "+types.TypeString(dst, nil)+"(...)")
				}
				if boxes(dst, src.Type) {
					report(call.Pos(), "interface boxing (conversion)")
				}
			}
		}
		return
	}

	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				report(call.Pos(), "allocation (make)")
			case "new":
				report(call.Pos(), "allocation (new)")
			case "append":
				if !scratchOK(call) {
					report(call.Pos(), "append outside the high-water scratch idiom")
				}
			case "panic":
				// The panic argument itself is cold by definition.
			}
			return
		}
	}

	// Interface boxing of arguments against the (instantiated) signature.
	tv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 && call.Ellipsis == token.NoPos {
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		} else {
			continue
		}
		if at, ok := info.Types[arg]; ok && boxes(pt, at.Type) {
			report(arg.Pos(), "interface boxing (argument)")
		}
	}
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// boxes reports whether storing a src value in a dst location allocates an
// interface box. A pointer-shaped value (pointer, map, channel, func,
// unsafe.Pointer) does not: it is the interface's data word as it stands.
func boxes(dst, src types.Type) bool {
	if !isInterface(dst) || isInterface(src) || src == types.Typ[types.UntypedNil] {
		return false
	}
	switch u := src.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	}
	return true
}

// allocatingConversion reports conversions that copy memory: string <->
// []byte/[]rune.
func allocatingConversion(src, dst types.Type) bool {
	return (isStringType(src) && isByteOrRuneSlice(dst)) ||
		(isByteOrRuneSlice(src) && isStringType(dst))
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

// scanBoxing flags assignments of a concrete value into an interface
// location.
func scanBoxing(info *types.Info, lhs, rhs []ast.Expr, report func(token.Pos, string)) {
	if len(lhs) != len(rhs) {
		return // multi-value call assignment: types already interface-shaped
	}
	for i := range lhs {
		lt, ok := info.Types[lhs[i]]
		if !ok {
			continue
		}
		if rt, ok := info.Types[rhs[i]]; ok && boxes(lt.Type, rt.Type) {
			report(rhs[i].Pos(), "interface boxing (assignment)")
		}
	}
}

// scanReturnBoxing flags returning a concrete value through an interface
// result (outside cold blocks this boxes on every call).
func scanReturnBoxing(pkg *loader.Package, decl *ast.FuncDecl, ret *ast.ReturnStmt, report func(token.Pos, string)) {
	obj, ok := pkg.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	sig := obj.Type().(*types.Signature)
	if sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		if rt, ok := pkg.Info.Types[res]; ok && boxes(sig.Results().At(i).Type(), rt.Type) {
			report(res.Pos(), "interface boxing (return)")
		}
	}
}

// highWaterAppends returns the append calls sanctioned by the repository's
// amortized-scratch idiom:
//
//	p.free = append(p.free, b)          // field append, stored back
//	reqs := q.txReqs[:0]                // local resliced from a field
//	reqs = append(reqs, r)              // ... grows the field's backing
//
// Both only allocate until the backing array reaches its high-water mark;
// the runtime zero-alloc tests pin the steady state at zero.
func highWaterAppends(pkg *loader.Package, decl *ast.FuncDecl) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)

	// Pass 1: locals that alias persistent storage — initialized or
	// assigned from a field selector (optionally resliced).
	scratch := make(map[types.Object]bool)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			if !ok {
				continue
			}
			obj := pkg.Info.Defs[id]
			if obj == nil {
				obj = pkg.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if aliasesPersistent(as.Rhs[i]) {
				scratch[obj] = true
			}
		}
		return true
	})

	// Pass 2: sanction appends whose destination equals their first
	// argument and whose target is a field or a scratch local.
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "append" {
			return true
		}
		if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
			return true
		}
		dst := ast.Unparen(as.Lhs[0])
		src := ast.Unparen(call.Args[0])
		if types.ExprString(dst) != types.ExprString(src) {
			return true
		}
		switch d := dst.(type) {
		case *ast.SelectorExpr:
			out[call] = true // field append
		case *ast.IndexExpr:
			if _, isSel := ast.Unparen(d.X).(*ast.SelectorExpr); isSel {
				out[call] = true // indexed field append (per-class free lists)
			}
		case *ast.Ident:
			obj := pkg.Info.Uses[d]
			if obj == nil {
				obj = pkg.Info.Defs[d]
			}
			if obj != nil && scratch[obj] {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// aliasesPersistent reports whether an expression denotes (a reslice of) a
// struct field, so a local assigned from it shares the field's backing.
func aliasesPersistent(e ast.Expr) bool {
	e = ast.Unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		// Any reslice of persistent storage keeps the backing array; the
		// common idiom is f[:0].
		return aliasesPersistent(sl.X)
	}
	if ix, ok := e.(*ast.IndexExpr); ok {
		return aliasesPersistent(ix.X)
	}
	if _, ok := e.(*ast.SelectorExpr); ok {
		return true
	}
	return false
}

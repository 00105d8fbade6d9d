package analyzers

import (
	"go/ast"
	"go/types"

	"kite/internal/lint/analysis"
	"kite/internal/lint/loader"
)

// Relpure proves the PriRelease purity contract from PR 6: a cross-shard
// post carrying sim.PriRelease runs AT THE BARRIER, in merge order,
// between windows — the cluster executes `p.fn(p.arg)` directly instead of
// queueing an inbox event. That is only sound if the handler
// is pure local bookkeeping: returning a resource one window early must
// only ever add availability. A release handler that schedules, posts,
// wakes a task, or touches device state would perturb the event timeline
// from outside any shard's window and break bit-for-bit determinism in a
// way no test matrix reliably catches.
//
// The analyzer finds every Engine.Post call whose priority argument is
// sim.PriRelease, statically resolves the handler argument — a func
// literal, a named function, or a long-lived func variable/field
// (framepool's recycleArg, a stage's flush, netback's txOutFreeF), for
// which every module-wide assignment of a literal to that variable is a
// candidate body — and walks the handler's transitive static call
// closure. Inside the closure it forbids:
//
//   - any call into kite/internal/sim (scheduling, posting, waking: the
//     barrier must not re-enter the scheduler)
//   - calls outside the module other than sync/atomic, math, math/bits
//     (everything else is unvetted side effects)
//   - indirect calls through func values or interfaces (an unresolvable
//     callee cannot be proven pure)
//
// Goroutines and channels need no clause here: simdet forbids them in
// every package such a handler can live in or walk into. sync/atomic stays
// on the allowlist for the metrics counters the framepool flush bumps.
// Pool free-list pushes, magazine splices, and counter increments — the
// sanctioned bookkeeping — all pass these rules without escapes.
var Relpure = &analysis.Analyzer{
	Name: "relpure",
	Doc:  "sim.PriRelease handlers must be pure local bookkeeping: no scheduling, posting, or unvetted calls",
	Run:  runRelpure,
}

const enginePostFunc = "(*kite/internal/sim.Engine).Post"

func runRelpure(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 5 {
				return true
			}
			fn := staticCallee(pass.Pkg.Info, call)
			if fn == nil || fn.FullName() != enginePostFunc {
				return true
			}
			if !isPriRelease(pass.Pkg.Info, call.Args[2]) {
				return true
			}
			checkReleaseHandler(pass, call.Args[3])
			return true
		})
	}
	return nil
}

// isPriRelease reports whether the priority argument resolves to the
// sim.PriRelease constant.
func isPriRelease(info *types.Info, arg ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(arg).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	c, ok := info.Uses[id].(*types.Const)
	return ok && c.Name() == "PriRelease" && c.Pkg() != nil &&
		c.Pkg().Path() == "kite/internal/sim"
}

// handlerBody is one candidate function body a release post may execute.
type handlerBody struct {
	pkg  *loader.Package
	body *ast.BlockStmt
	name string
}

// checkReleaseHandler resolves the handler expression to its candidate
// bodies and purity-checks each.
func checkReleaseHandler(pass *analysis.Pass, h ast.Expr) {
	bodies, resolved := resolveHandler(pass, h, 0)
	if !resolved {
		pass.Reportf(h.Pos(),
			"relpure: PriRelease handler cannot be resolved statically; its purity is unprovable")
		return
	}
	w := &relWalk{pass: pass, site: h, seenFn: map[*types.Func]bool{}, seenBody: map[*ast.BlockStmt]bool{}}
	for _, b := range bodies {
		w.checkBody(b)
	}
}

// resolveHandler maps a handler expression to the function bodies it can
// denote: a literal is itself; a named function is its declaration; a
// variable or field is every literal/function assigned to it anywhere in
// the module (release handlers are long-lived values bound once, so the
// assignment set IS the candidate set).
func resolveHandler(pass *analysis.Pass, h ast.Expr, depth int) ([]handlerBody, bool) {
	if depth > 4 {
		return nil, false
	}
	info := pass.Pkg.Info
	switch e := ast.Unparen(h).(type) {
	case *ast.FuncLit:
		return []handlerBody{{pkg: pass.Pkg, body: e.Body, name: "func literal"}}, true
	case *ast.Ident, *ast.SelectorExpr:
		id := identOf(e)
		switch obj := info.Uses[id].(type) {
		case *types.Func:
			fd := pass.Module.FuncDecl(obj)
			if fd == nil {
				return nil, false
			}
			return []handlerBody{{pkg: fd.Pkg, body: fd.Decl.Body, name: obj.Name()}}, true
		case *types.Var:
			return assignedHandlers(pass, obj, depth)
		}
	}
	return nil, false
}

func identOf(e ast.Expr) *ast.Ident {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x
	case *ast.SelectorExpr:
		return x.Sel
	}
	return nil
}

// assignedHandlers finds every module-wide binding of a func value to the
// variable or struct field obj.
func assignedHandlers(pass *analysis.Pass, obj *types.Var, depth int) ([]handlerBody, bool) {
	var out []handlerBody
	ok := true
	for _, pkg := range pass.Module.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.ValueSpec:
					for i, name := range x.Names {
						if pkg.Info.Defs[name] == obj && i < len(x.Values) {
							sub := &analysis.Pass{Analyzer: pass.Analyzer, Pkg: pkg, Module: pass.Module, Report: pass.Report}
							bs, r := resolveHandler(sub, x.Values[i], depth+1)
							out = append(out, bs...)
							ok = ok && r
						}
					}
				case *ast.AssignStmt:
					for i, l := range x.Lhs {
						if i >= len(x.Rhs) || !lhsIs(pkg.Info, l, obj) {
							continue
						}
						if isNilIdent(x.Rhs[i]) {
							continue
						}
						sub := &analysis.Pass{Analyzer: pass.Analyzer, Pkg: pkg, Module: pass.Module, Report: pass.Report}
						bs, r := resolveHandler(sub, x.Rhs[i], depth+1)
						out = append(out, bs...)
						ok = ok && r
					}
				}
				return true
			})
		}
	}
	return out, ok && len(out) > 0
}

// lhsIs reports whether an assignment target denotes obj (a plain
// variable or a field selector).
func lhsIs(info *types.Info, l ast.Expr, obj *types.Var) bool {
	switch x := ast.Unparen(l).(type) {
	case *ast.Ident:
		return info.Defs[x] == obj || info.Uses[x] == obj
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			return sel.Obj() == obj
		}
		return info.Uses[x.Sel] == obj
	}
	return false
}

// relWalk purity-checks the transitive static call closure of one release
// handler.
type relWalk struct {
	pass     *analysis.Pass
	site     ast.Expr
	seenFn   map[*types.Func]bool
	seenBody map[*ast.BlockStmt]bool
}

func (w *relWalk) checkBody(b handlerBody) {
	if b.body == nil || w.seenBody[b.body] {
		return
	}
	w.seenBody[b.body] = true
	info := b.pkg.Info
	ast.Inspect(b.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			w.checkCall(b, call, info)
		}
		return true
	})
}

func (w *relWalk) checkCall(b handlerBody, call *ast.CallExpr, info *types.Info) {
	fun := ast.Unparen(call.Fun)
	// Type conversions and builtins (append to a free list, clear, copy,
	// panic on a violated invariant) are pure bookkeeping.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	fn := staticCallee(info, call)
	if fn == nil {
		// A call through a func value or interface: the target is unknown,
		// so its purity is unprovable. (Method expressions on funclit-typed
		// fields land here too.)
		w.pass.Reportf(call.Pos(),
			"relpure: PriRelease handler %s makes an indirect call that cannot be proven pure", b.name)
		return
	}
	pkg := fn.Pkg()
	if pkg == nil {
		return // error.Error and friends
	}
	if pkg.Path() == "kite/internal/sim" {
		w.pass.Reportf(call.Pos(),
			"relpure: PriRelease handler %s re-enters the scheduler via sim.%s; release posts run at the barrier and must not schedule, post, or wake",
			b.name, fn.Name())
		return
	}
	if !w.pass.Module.InModule(pkg) {
		if extAllowed(fn) {
			return
		}
		w.pass.Reportf(call.Pos(),
			"relpure: PriRelease handler %s calls %s.%s outside the module; only sync/atomic and math are purity-vetted",
			b.name, pkg.Path(), fn.Name())
		return
	}
	// In-module callee: descend.
	if w.seenFn[fn] {
		return
	}
	w.seenFn[fn] = true
	fd := w.pass.Module.FuncDecl(fn)
	if fd == nil || fd.Decl.Body == nil {
		return
	}
	w.checkBody(handlerBody{pkg: fd.Pkg, body: fd.Decl.Body, name: b.name + " -> " + fn.Name()})
}

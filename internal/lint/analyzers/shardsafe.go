package analyzers

import (
	"go/ast"
	"go/types"

	"kite/internal/lint/analysis"
	"kite/internal/lint/loader"
)

// Shardsafe proves shard confinement, the load-bearing assumption of the
// sharded event core (DESIGN §12): code running on one shard never reaches
// into state owned by another shard, or by another simulation, except
// through the sanctioned channel — Engine.Post and the staged release
// outbox built on it. A whole simulation runs on one goroutine, so what a
// violation breaks is not memory safety but the two things determinism
// rests on: `-parallel` legs share the process, and a shard's window is
// only valid if nothing is scheduled into it from outside. Two rules, with
// no escape hatch:
//
//  1. Code reachable from a shard-executed handler (anything registered
//     on the event machinery, including Post handlers themselves) must
//     not write a package-level variable: concurrent experiment legs
//     would race on it, and one leg's timeline would read another's
//     leftovers.
//
//  2. Shard code must not schedule work on another component's engine by
//     reaching through the component graph. The heuristic: a scheduling
//     call (Schedule/After/Exec/Wake) whose receiver chain passes
//     through two or more engine-bearing components (module structs
//     holding a *sim.Engine/CPU/CPUPool field) crosses an ownership
//     boundary — `p.eng.Schedule` is self-scheduling, but
//     `p.peer.eng.Schedule` drives a foreign timeline and, under
//     sharding, lands an event inside a window whose horizon was computed
//     without it. Cross-shard work goes through Engine.Post, which stages
//     into the outbox and is merged at the window barrier.
var Shardsafe = &analysis.Analyzer{
	Name: "shardsafe",
	Doc:  "shard-executed code may not write package-level variables or schedule on a foreign component's engine; cross-shard work goes through Engine.Post",
	Run:  runShardsafe,
}

// shardSched lists the scheduling entry points rule 2 applies to. Post is
// deliberately absent: it IS the sanctioned cross-shard channel.
var shardSched = map[string]bool{
	"(*kite/internal/sim.Engine).Schedule": true,
	"(*kite/internal/sim.Engine).After":    true,
	"(*kite/internal/sim.CPU).Exec":        true,
	"(*kite/internal/sim.CPUPool).Exec":    true,
	"(*kite/internal/sim.Task).Wake":       true,
	"(*kite/internal/sim.Batch).Wake":      true,
}

func runShardsafe(pass *analysis.Pass) error {
	w := &shardWalk{
		pass:    pass,
		checked: map[*types.Func]bool{},
		seenLit: map[*ast.BlockStmt]bool{},
	}
	w.checkShardRoots()
	return nil
}

type shardWalk struct {
	pass    *analysis.Pass
	checked map[*types.Func]bool
	seenLit map[*ast.BlockStmt]bool
}

// writeTargets returns the lvalues a statement mutates.
func writeTargets(n ast.Node) []ast.Expr {
	switch s := n.(type) {
	case *ast.AssignStmt:
		return s.Lhs
	case *ast.IncDecStmt:
		return []ast.Expr{s.X}
	}
	return nil
}

// globalWritten resolves an lvalue to a package-level variable, either a
// plain identifier or a pkg.Var selector.
func globalWritten(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && isPkgLevel(v) {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			base, ok := ast.Unparen(x.X).(*ast.Ident)
			if !ok {
				return nil
			}
			if _, isPkg := info.Uses[base].(*types.PkgName); !isPkg {
				return nil
			}
			if v, ok := info.Uses[x.Sel].(*types.Var); ok && isPkgLevel(v) {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// checkShardRoots collects every handler registered on the event
// machinery in this package — the evblock registrar set plus Engine.Post
// handlers — and walks their static call closures under rules 1 and 2.
func (w *shardWalk) checkShardRoots() {
	info := w.pass.Pkg.Info
	for _, f := range w.pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := staticCallee(info, call)
			if fn == nil {
				return true
			}
			argIdx, ok := evRegistrars[fn.FullName()]
			if !ok && fn.FullName() == enginePostFunc {
				argIdx, ok = 3, true
			}
			if !ok || argIdx >= len(call.Args) {
				return true
			}
			w.checkRootExpr(call.Args[argIdx])
			return true
		})
	}
}

func (w *shardWalk) checkRootExpr(arg ast.Expr) {
	info := w.pass.Pkg.Info
	switch a := ast.Unparen(arg).(type) {
	case *ast.FuncLit:
		if w.seenLit[a.Body] {
			return
		}
		w.seenLit[a.Body] = true
		w.scanShardBody(w.pass.Pkg, a.Body)
		for _, c := range calleesOf(w.pass.Module, w.pass.Pkg, a.Body, nil) {
			if c.fn.Pkg() != nil && w.pass.Module.InModule(c.fn.Pkg()) {
				w.checkRootFunc(c.fn)
			}
		}
	case *ast.Ident:
		if fn, ok := info.Uses[a].(*types.Func); ok {
			w.checkRootFunc(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[a]; ok && sel.Kind() == types.MethodVal {
			w.checkRootFunc(sel.Obj().(*types.Func))
		} else if fn, ok := info.Uses[a.Sel].(*types.Func); ok {
			w.checkRootFunc(fn)
		}
	}
}

func (w *shardWalk) checkRootFunc(root *types.Func) {
	walkReachable(w.pass.Module, root,
		func(fn *types.Func, fd *analysis.FuncDecl) bool {
			if w.checked[fn] {
				return true
			}
			w.checked[fn] = true
			w.scanShardBody(fd.Pkg, fd.Decl.Body)
			return true
		},
		nil, nil)
}

// scanShardBody applies rules 1 and 2 to one shard-reachable body.
func (w *shardWalk) scanShardBody(pkg *loader.Package, body ast.Node) {
	if body == nil {
		return
	}
	info := pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		for _, t := range writeTargets(n) {
			if v := globalWritten(info, t); v != nil {
				w.pass.Reportf(n.Pos(),
					"shardsafe: shard-reachable code writes package-level var %s; keep the state on the component that owns it",
					v.Name())
			}
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil || !shardSched[fn.FullName()] {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if hops := pinnedHops(w.pass.Module, info, sel.X); hops >= 2 {
			w.pass.Reportf(call.Pos(),
				"shardsafe: %s reaches through %d engine-bearing components; cross-shard scheduling must go through Engine.Post",
				fn.Name(), hops)
		}
		return true
	})
}

// pinnedHops counts how many expressions along a receiver chain denote
// engine-bearing module components — structs that own a scheduling
// handle. One hop is self-scheduling; two or more means the call reached
// into somebody else's component.
func pinnedHops(mod *analysis.Module, info *types.Info, e ast.Expr) int {
	n := 0
	for {
		e = ast.Unparen(e)
		if tv, ok := info.Types[e]; ok && enginBearing(mod, tv.Type) {
			n++
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return n
		}
	}
}

// enginBearing reports whether t (after dereference) is a module struct,
// outside sim itself, holding a direct *sim.Engine/CPU/CPUPool field.
func enginBearing(mod *analysis.Module, t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !mod.InModule(pkg) || pkg.Path() == "kite/internal/sim" {
		return false
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isSchedHandle(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

func isSchedHandle(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	if o.Pkg() == nil || o.Pkg().Path() != "kite/internal/sim" {
		return false
	}
	switch o.Name() {
	case "Engine", "CPU", "CPUPool":
		return true
	}
	return false
}

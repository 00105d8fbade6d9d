package analyzers

import (
	"go/ast"
	"go/types"

	"kite/internal/lint/analysis"
	"kite/internal/lint/loader"
)

// callee is one resolved outgoing call from a function body.
type callee struct {
	call *ast.CallExpr
	fn   *types.Func // generic origin for instantiated methods
	// viaInterface marks a call that was resolved by class-hierarchy
	// analysis (the static target is an interface method).
	viaInterface bool
}

// calleesOf resolves the statically-known callees of every call expression
// under node, including calls inside nested function literals (a closure
// created on a path runs in that path's context). Interface method calls
// fan out to all module implementations (class-hierarchy analysis); calls
// of plain function values (fields, locals, parameters) resolve to nothing
// and are reported through dyn.
func calleesOf(mod *analysis.Module, pkg *loader.Package, node ast.Node, dyn func(*ast.CallExpr)) []callee {
	var out []callee
	ast.Inspect(node, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fun := ast.Unparen(call.Fun)
		// Type conversions are not calls.
		if tv, ok := pkg.Info.Types[fun]; ok && tv.IsType() {
			return true
		}
		switch f := fun.(type) {
		case *ast.Ident:
			switch obj := pkg.Info.Uses[f].(type) {
			case *types.Func:
				out = append(out, callee{call: call, fn: obj.Origin()})
			case *types.Builtin, *types.TypeName, nil:
				// builtins and conversions: handled by op scanners
			default:
				if dyn != nil {
					dyn(call) // function-typed variable or parameter
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := pkg.Info.Selections[f]; ok {
				switch sel.Kind() {
				case types.MethodVal:
					fn := sel.Obj().(*types.Func)
					if iface := interfaceOf(sel.Recv()); iface != nil {
						for _, impl := range mod.Implementers(iface, fn.Name()) {
							out = append(out, callee{call: call, fn: impl.Origin(), viaInterface: true})
						}
					} else {
						out = append(out, callee{call: call, fn: fn.Origin()})
					}
				default:
					if dyn != nil {
						dyn(call) // method expression value or field call
					}
				}
			} else if obj, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
				// Qualified identifier: pkg.Function(...)
				out = append(out, callee{call: call, fn: obj.Origin()})
			} else if _, isVar := pkg.Info.Uses[f.Sel].(*types.Var); isVar && dyn != nil {
				dyn(call) // call through a struct field of function type
			}
		default:
			if dyn != nil {
				dyn(call) // e.g. immediately-invoked function literal
			}
		}
		return true
	})
	return out
}

// staticCallee resolves a call to its static *types.Func target (method or
// package function), or nil for builtins, conversions, and dynamic calls.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			return sel.Obj().(*types.Func)
		}
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// interfaceOf returns the interface to dispatch on when t is an interface
// or a type parameter (whose constraint carries the method set), else nil.
func interfaceOf(t types.Type) *types.Interface {
	if iface, ok := t.Underlying().(*types.Interface); ok {
		return iface
	}
	if tp, ok := t.(*types.TypeParam); ok {
		if iface, ok := tp.Constraint().Underlying().(*types.Interface); ok {
			return iface
		}
	}
	return nil
}

// walkReachable performs a depth-first walk of the static call graph from
// root. For every module function with a body it invokes visit exactly
// once; visit returns false to stop descending through that function
// (cold-path cutoff). External (non-module) static callees are reported
// through ext with the function they were called from. Dynamic calls
// (function values) are reported through dyn at the call site and not
// followed.
func walkReachable(mod *analysis.Module, root *types.Func,
	visit func(fn *types.Func, fd *analysis.FuncDecl) bool,
	ext func(from *analysis.FuncDecl, c callee),
	dyn func(from *analysis.FuncDecl, call *ast.CallExpr)) {

	seen := make(map[*types.Func]bool)
	var walk func(fn *types.Func)
	walk = func(fn *types.Func) {
		if seen[fn] {
			return
		}
		seen[fn] = true
		fd := mod.FuncDecl(fn)
		if fd == nil || fd.Decl.Body == nil {
			return
		}
		if !visit(fn, fd) {
			return
		}
		for _, c := range calleesOf(mod, fd.Pkg, fd.Decl.Body, func(call *ast.CallExpr) {
			if dyn != nil {
				dyn(fd, call)
			}
		}) {
			if c.fn.Pkg() != nil && mod.InModule(c.fn.Pkg()) {
				walk(c.fn)
			} else if ext != nil {
				ext(fd, c)
			}
		}
	}
	walk(root.Origin())
}

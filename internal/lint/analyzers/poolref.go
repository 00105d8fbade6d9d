package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"kite/internal/lint/analysis"
)

// Poolref checks the first hop of the framepool/blkpool ownership
// discipline the zero-copy pipeline depends on. What it tracks is exactly
// this: a pool Get whose result is bound to a local variable, from that
// statement to that function's exits. On every control-flow path in
// between the buffer must see exactly one ownership transfer — a Release
// back to the pool, or an escape that hands the reference to someone else
// (passed to a function, stored, returned, Retained). A path that drops
// the last reference leaks the frame forever (the pools never
// garbage-collect); a second Release corrupts the free list and
// resurfaces as cross-flow data corruption.
//
// A buffer a function receives as a parameter is not tracked: whether
// Deliver, rxEnqueue or a Tx error path releases the frame it was handed
// is the business of the leak tests, which drive each drop branch and
// assert Pool.Outstanding() == 0 (internal/core's
// TestRxDropBranchesReleaseFrames, TestFleetBroadcastFloodLeaksNothing and
// TestNetbackSurvivesHostileTxRequests).
//
// The analysis is path-sensitive over the AST, built on the flow engine in
// flow.go: each acquisition site is abstract-interpreted through
// the enclosing function with a small state set {owned, released,
// escaped}. Branches fork the set, merges union it, loops run to a
// two-iteration fixpoint. Functions using goto or labeled branches are
// skipped (none exist in this module). Aliasing is handled conservatively:
// copying the buffer into another variable counts as an escape and ends
// tracking.
var Poolref = &analysis.Analyzer{
	Name: "poolref",
	Doc:  "pool Get results must be released exactly once or handed off on every path",
	Run:  runPoolref,
}

// poolGetFuncs are the acquisition points that return an owned *Buf.
var poolGetFuncs = map[string]bool{
	"(*kite/internal/framepool.Pool).Get":    true,
	"(*kite/internal/framepool.Pool).GetLen": true,
	"(*kite/internal/framepool.Pool).From":   true,
	"(*kite/internal/blkpool.Pool).Get":      true,
}

func runPoolref(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkPoolOwnership(pass, fd.Body)
		}
	}
	return nil
}

// Ownership states, used as bits in a set.
const (
	stNone     = 1 << iota // before the acquisition site executes
	stOwned                // holding the sole reference
	stReleased             // given back to the pool
	stEscaped              // handed off; no longer our responsibility
)

// acquisition is one tracked `b := pool.Get(...)` site.
type acquisition struct {
	site *ast.AssignStmt
	obj  types.Object // the variable bound to the result
	get  *ast.CallExpr
}

func checkPoolOwnership(pass *analysis.Pass, body *ast.BlockStmt) {
	if hasJumps(body) {
		return
	}
	info := pass.Pkg.Info
	var acqs []acquisition
	ast.Inspect(body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return true
		}
		id, ok := s.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		call, ok := s.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil || !poolGetFuncs[fn.FullName()] {
			return true
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			acqs = append(acqs, acquisition{site: s, obj: obj, get: call})
		}
		return true
	})
	for _, a := range acqs {
		w := &ownerWalk{pass: pass, info: info, acq: a}
		(&flowExec{client: w}).run(body, stNone)
	}
}

// ownerWalk interprets one function body for one acquisition site.
type ownerWalk struct {
	pass *analysis.Pass
	info *types.Info
	acq  acquisition

	leaked  bool // leak reported (once per acquisition)
	doubled bool // double-release reported (once per acquisition)
}

// exit checks a function-exit state set (a return, or falling off the
// end of the body).
func (w *ownerWalk) exit(states int, pos token.Pos) {
	if states&stOwned != 0 && !w.leaked {
		w.leaked = true
		w.pass.Reportf(w.acq.get.Pos(),
			"poolref: buffer acquired here is not released or handed off on every path (leak at %s)",
			w.pass.Module.Fset.Position(pos))
	}
}

func (w *ownerWalk) release(states int, pos token.Pos) int {
	if states&stReleased != 0 && !w.doubled {
		w.doubled = true
		w.pass.Reportf(pos, "poolref: buffer may already be released when Release is called here (double release)")
	}
	out := states &^ stOwned &^ stReleased
	if states&(stOwned|stReleased) != 0 {
		out |= stReleased
	}
	return out
}

// stmt handles the statements with ownership-specific semantics: the
// tracked acquisition, reassignment of the tracked variable, and deferred
// Release.
func (w *ownerWalk) stmt(s ast.Stmt, in int) (int, bool) {
	switch st := s.(type) {
	case *ast.AssignStmt:
		if st == w.acq.site {
			// The tracked Get executes: every surviving path now owns
			// the buffer. (Re-entry from an enclosing loop re-acquires;
			// an Owned state surviving to here was already reported at
			// the loop's back edge via the fixpoint exit check.)
			return stOwned, true
		}
		in = w.scan(st, in)
		// Reassigning the tracked variable ends tracking (aliasing).
		for _, l := range st.Lhs {
			if id, ok := l.(*ast.Ident); ok && w.isTracked(id) {
				return stEscaped, true
			}
		}
		return in, true
	case *ast.DeferStmt:
		// A deferred Release runs on every subsequent exit path, so model
		// it as an immediate release: later returns see Released (no
		// leak), and a later explicit Release is a genuine double free.
		if recvIdent(st.Call) != nil && w.isTracked(recvIdent(st.Call)) {
			if name := methodName(st.Call); name == "Release" {
				return w.release(in, st.Pos()), true
			}
		}
		return w.scan(st, in), true
	}
	return in, false
}

// scan processes every use of the tracked variable in a statement that has
// no interesting control flow of its own.
func (w *ownerWalk) scan(n ast.Node, in int) int {
	if n == nil {
		return in
	}
	out := in
	handled := map[*ast.Ident]bool{}
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			// Capture by a closure escapes the buffer.
			if usesObj(e.Body, w.info, w.acq.obj) {
				out = stEscaped
			}
			return false
		case *ast.CallExpr:
			if id := recvIdent(e); id != nil && w.isTracked(id) {
				handled[id] = true
				switch methodName(e) {
				case "Release":
					out = w.release(out, e.Pos())
				case "Retain":
					out = stEscaped
				}
			}
		case *ast.SelectorExpr:
			// Field reads / other method receivers: not a transfer.
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && w.isTracked(id) {
				handled[id] = true
			}
		case *ast.BinaryExpr:
			// Comparisons (b == nil) are not transfers.
			for _, side := range []ast.Expr{e.X, e.Y} {
				if id, ok := ast.Unparen(side).(*ast.Ident); ok && w.isTracked(id) {
					handled[id] = true
				}
			}
		case *ast.Ident:
			if w.isTracked(e) && !handled[e] {
				// Any other use — argument, store, return value, send,
				// composite literal, &b — hands the reference off.
				out = stEscaped
			}
		}
		return true
	})
	return out
}

func (w *ownerWalk) isTracked(id *ast.Ident) bool {
	return w.info.Uses[id] == w.acq.obj || w.info.Defs[id] == w.acq.obj
}

// recvIdent returns the receiver identifier of a method call `id.M(...)`,
// or nil.
func recvIdent(call *ast.CallExpr) *ast.Ident {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	return id
}

// methodName returns the selector name of a method call, or "".
func methodName(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// isPanicCall reports whether e is a call to the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

// usesObj reports whether any identifier under n resolves to obj.
func usesObj(n ast.Node, info *types.Info, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			found = true
		}
		return !found
	})
	return found
}

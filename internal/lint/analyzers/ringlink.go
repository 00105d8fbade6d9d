package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"kite/internal/lint/analysis"
)

// Ringlink proves the link discipline of the intrusive structures the
// fleet data plane runs on (PRs 7/9): the pvback.Lane member active ring,
// timewheel bucket chains and freelist slabs, framepool remote-free
// magazines. These structures have no redundancy — a node's membership IS
// its next/prev words — so a double-link silently merges two rings, a
// double-unlink corrupts the neighbors of an unrelated node, and touching
// a freed slot resurrects it into two owners. -race cannot see any of
// this (single goroutine, plain int writes); only the discipline itself
// can be checked.
//
// The operations are declared, not hardcoded: a function whose doc
// comment carries
//
//	//kite:ringlink link [argIdx]    inserts its operand into a ring
//	//kite:ringlink unlink [argIdx]  removes its operand from a ring
//	//kite:ringlink free [argIdx]    returns its operand to a freelist
//	//kite:ringlink alloc            returns a fresh, unlinked handle
//
// is a ring operation on the call argument at argIdx (default 0). For
// every function that calls at least one operation, each handle variable
// is abstract-interpreted through the body on the shared flow engine
// (flow.go) with states {fresh, linked, unlinked, freed}; branches fork,
// merges union, loops run to a two-iteration fixpoint. Reported:
//
//   - link while possibly linked          (double-link: ring merge)
//   - unlink while possibly unlinked      (double-unlink)
//   - free while possibly linked          (dangling ring pointer)
//   - any operation or use after free     (use-after-detach)
//   - alloc whose handle is neither linked, freed, handed off, nor
//     returned on some path               (leaked link)
//
// Reassigning the handle variable ends tracking (the slot index now names
// a different node); passing or returning a fresh handle transfers the
// link obligation to the receiver.
var Ringlink = &analysis.Analyzer{
	Name: "ringlink",
	Doc:  "intrusive ring handles: link/unlink pairing, no double-link, no use-after-detach",
	Run:  runRinglink,
}

// Ring-handle states, used as bits in a flow-engine state set.
const (
	rsUnknown  = 1 << iota // no operation observed yet on this path
	rsFresh                // allocated, not yet linked: the caller owes a link/free/handoff
	rsLinked               // on a ring
	rsUnlinked             // removed from a ring by an unlink op
	rsFreed                // returned to the freelist; any further touch is a bug
)

// ringOp is one declared ring operation.
type ringOp struct {
	kind string // "link", "unlink", "free", "alloc"
	arg  int    // operand index for link/unlink/free
}

// ringOpOf resolves a call to its //kite:ringlink declaration, if any.
func ringOpOf(mod *analysis.Module, info *types.Info, call *ast.CallExpr) (ringOp, bool) {
	fn := staticCallee(info, call)
	if fn == nil {
		return ringOp{}, false
	}
	fd := mod.FuncDecl(fn)
	if fd == nil {
		return ringOp{}, false
	}
	return ringDirective(fd.Decl.Doc)
}

// ringDirective parses "//kite:ringlink <kind> [argIdx]" from a doc group.
func ringDirective(doc *ast.CommentGroup) (ringOp, bool) {
	if doc == nil {
		return ringOp{}, false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, "//kite:ringlink")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			continue
		}
		op := ringOp{kind: f[0]}
		if len(f) > 1 {
			if n, err := strconv.Atoi(f[1]); err == nil {
				op.arg = n
			}
		}
		return op, true
	}
	return ringOp{}, false
}

func runRinglink(pass *analysis.Pass) error {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Operation bodies implement the raw pointer surgery the
			// discipline is ABOUT; they are the trusted base.
			if _, isOp := ringDirective(fd.Doc); isOp {
				continue
			}
			checkRingDiscipline(pass, fd.Body)
		}
	}
	return nil
}

// checkRingDiscipline interprets one function body once per handle
// variable that participates in a ring operation.
func checkRingDiscipline(pass *analysis.Pass, body *ast.BlockStmt) {
	if hasJumps(body) {
		return
	}
	info := pass.Pkg.Info
	var handles []types.Object
	seen := map[types.Object]bool{}
	track := func(obj types.Object) {
		if obj != nil && !seen[obj] {
			seen[obj] = true
			handles = append(handles, obj)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			op, ok := ringOpOf(pass.Module, info, x)
			if !ok || op.kind == "alloc" {
				return true
			}
			if op.arg < len(x.Args) {
				if id, ok := ast.Unparen(x.Args[op.arg]).(*ast.Ident); ok {
					track(objOf(info, id))
				}
			}
		case *ast.AssignStmt:
			// h := w.alloc() binds a fresh handle to h.
			if len(x.Lhs) == 1 && len(x.Rhs) == 1 {
				if call, ok := x.Rhs[0].(*ast.CallExpr); ok {
					if op, ok := ringOpOf(pass.Module, info, call); ok && op.kind == "alloc" {
						if id, ok := x.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
							track(objOf(info, id))
						}
					}
				}
			}
		}
		return true
	})
	for _, obj := range handles {
		w := &ringWalk{pass: pass, info: info, obj: obj, reported: map[string]bool{}}
		(&flowExec{client: w}).run(body, rsUnknown)
	}
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Defs[id]; o != nil {
		return o
	}
	return info.Uses[id]
}

// ringWalk interprets one function body for one handle variable; it is the
// ringlink flowClient.
type ringWalk struct {
	pass *analysis.Pass
	info *types.Info
	obj  types.Object

	allocPos token.Pos       // most recent tracked alloc site, for leak reports
	reported map[string]bool // one report per (pos, rule)
}

func (w *ringWalk) report(pos token.Pos, rule, format string, args ...any) {
	k := strconv.Itoa(int(pos)) + rule
	if w.reported[k] {
		return
	}
	w.reported[k] = true
	w.pass.Reportf(pos, format, args...)
}

func (w *ringWalk) isObj(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && (w.info.Uses[id] == w.obj || w.info.Defs[id] == w.obj)
}

// stmt handles assignments, whose left-hand sides rebind the handle.
func (w *ringWalk) stmt(s ast.Stmt, in int) (int, bool) {
	st, ok := s.(*ast.AssignStmt)
	if !ok {
		return in, false
	}
	// h := alloc() — the tracked acquisition.
	if len(st.Lhs) == 1 && len(st.Rhs) == 1 && w.isObj(st.Lhs[0]) {
		if call, ok := st.Rhs[0].(*ast.CallExpr); ok {
			if op, ok := ringOpOf(w.pass.Module, w.info, call); ok && op.kind == "alloc" {
				w.allocPos = call.Pos()
				return rsFresh, true
			}
		}
	}
	out := in
	for _, r := range st.Rhs {
		out = w.scan(r, out)
	}
	rebound := false
	for _, l := range st.Lhs {
		if w.isObj(l) {
			rebound = true
		} else {
			// w.key[h] = v: the handle is used (as an index, say) but not
			// reassigned.
			out = w.scan(l, out)
		}
	}
	if rebound {
		// The variable now names a different node; prior state is moot —
		// but a fresh handle overwritten before being linked is leaked.
		if out&rsFresh != 0 {
			w.leak(st.Pos())
		}
		return rsUnknown, true
	}
	// Copying a fresh handle into another variable or field hands the
	// link obligation to the new holder.
	for _, r := range st.Rhs {
		if w.isObj(r) {
			out &^= rsFresh
			out |= rsUnknown
		}
	}
	return out, true
}

// scan folds straight-line uses of the handle into the state: ring
// operations transition it, everything else is checked for use-after-free
// and fresh-handle handoff.
func (w *ringWalk) scan(n ast.Node, in int) int {
	if n == nil {
		return in
	}
	out := in
	handled := map[*ast.Ident]bool{}
	ast.Inspect(n, func(x ast.Node) bool {
		switch e := x.(type) {
		case *ast.FuncLit:
			// Capture by a closure hands the handle off entirely.
			if usesObj(e.Body, w.info, w.obj) {
				out = rsUnknown
			}
			return false
		case *ast.ReturnStmt:
			// Returning the handle transfers the link obligation.
			if usesObj(e, w.info, w.obj) {
				out &^= rsFresh
				out |= rsUnknown
			}
		case *ast.CallExpr:
			if op, ok := ringOpOf(w.pass.Module, w.info, e); ok {
				if op.kind != "alloc" && op.arg < len(e.Args) && w.isObj(e.Args[op.arg]) {
					if id, ok := ast.Unparen(e.Args[op.arg]).(*ast.Ident); ok {
						handled[id] = true
					}
					out = w.apply(op, out, e.Pos())
				}
				return true
			}
			// A non-operation call taking the handle: the callee may link
			// or free it, so a fresh handle's obligation moves there.
			for _, a := range e.Args {
				if usesObj(a, w.info, w.obj) {
					out &^= rsFresh
					out |= rsUnknown
				}
			}
		case *ast.Ident:
			if !handled[e] && (w.info.Uses[e] == w.obj) && out&rsFreed != 0 {
				w.report(e.Pos(), "uaf",
					"ringlink: %s may already be freed when used here (use-after-detach)", e.Name)
			}
		}
		return true
	})
	return out
}

// apply transitions the state set through one ring operation, reporting
// discipline violations. Operations are strong updates: afterwards the
// handle is definitely in the operation's result state.
func (w *ringWalk) apply(op ringOp, in int, pos token.Pos) int {
	name := w.obj.Name()
	if in&rsFreed != 0 {
		w.report(pos, "uaf",
			"ringlink: %s may already be freed when %sed here (use-after-detach)", name, op.kind)
	}
	switch op.kind {
	case "link":
		if in&rsLinked != 0 {
			w.report(pos, "double-link",
				"ringlink: %s may already be linked when linked again here (double-link merges rings)", name)
		}
		return rsLinked
	case "unlink":
		if in&(rsUnlinked|rsFresh) != 0 {
			w.report(pos, "double-unlink",
				"ringlink: %s may already be unlinked when unlinked here (double-unlink)", name)
		}
		return rsUnlinked
	case "free":
		if in&rsLinked != 0 {
			w.report(pos, "free-linked",
				"ringlink: %s may still be linked when freed here (dangling ring pointer)", name)
		}
		return rsFreed
	}
	return in
}

// exit checks a function-exit state set: a handle still fresh was neither
// linked, freed, nor handed off on this path.
func (w *ringWalk) exit(states int, pos token.Pos) {
	if states&rsFresh != 0 {
		w.leak(pos)
	}
}

func (w *ringWalk) leak(at token.Pos) {
	pos := w.allocPos
	if pos == token.NoPos {
		pos = at
	}
	w.report(pos, "leak",
		"ringlink: handle allocated here is neither linked nor freed on some path (leaked link, detached at %s)",
		w.pass.Module.Fset.Position(at))
}

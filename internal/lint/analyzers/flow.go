package analyzers

import (
	"go/ast"
	"go/token"
)

// This file is poolref's control-flow half: a small abstract interpreter
// over one function body. The abstract state is a bitset of ownership
// facts (poolref.go's st* constants); branches fork the set, merges union
// it, and loops run to a two-iteration fixpoint, so the interpretation is a
// sound over-approximation of every acyclic path plus one loop back edge.
// Functions using goto or labeled branches are skipped by the caller (none
// exist in this module); hasJumps detects them.
//
// The engine owns control flow only. Everything about buffers lives in
// ownerWalk: stmt gets first crack at every statement (returning done=true
// means it fully handled it — the tracked acquisition, a deferred
// Release), scan folds the straight-line effects of a node into the state
// (Release, Retain, escapes), and exit observes each function-exit state
// set (an explicit return or falling off the end), where a leak shows.

// flowExec interprets one function body for one ownerWalk. A state of 0
// means "path terminated" (return, panic); the engine stops propagating it.
type flowExec struct {
	client *ownerWalk
}

// run interprets body from state in and checks the fall-off-the-end exit.
func (w *flowExec) run(body *ast.BlockStmt, in int) {
	out := w.execBlock(body, in)
	if out != 0 {
		w.client.exit(out, body.End())
	}
}

func (w *flowExec) execBlock(b *ast.BlockStmt, in int) int {
	if b == nil {
		return in
	}
	return w.execStmts(b.List, in)
}

func (w *flowExec) execStmts(list []ast.Stmt, in int) int {
	cur := in
	for _, s := range list {
		cur = w.execStmt(s, cur)
		if cur == 0 {
			return 0 // path terminated
		}
	}
	return cur
}

func (w *flowExec) execStmt(s ast.Stmt, in int) int {
	if out, done := w.client.stmt(s, in); done {
		return out
	}
	switch st := s.(type) {
	case *ast.ReturnStmt:
		in = w.client.scan(st, in)
		w.client.exit(in, st.Pos())
		return 0
	case *ast.ExprStmt:
		if isPanicCall(st.X) {
			w.client.scan(st, in)
			return 0
		}
		return w.client.scan(st, in)
	case *ast.BlockStmt:
		return w.execBlock(st, in)
	case *ast.IfStmt:
		if st.Init != nil {
			in = w.execStmt(st.Init, in)
			if in == 0 {
				return 0
			}
		}
		in = w.scanExpr(st.Cond, in)
		thenOut := w.execBlock(st.Body, in)
		elseOut := in
		if st.Else != nil {
			elseOut = w.execStmt(st.Else, in)
		}
		return thenOut | elseOut
	case *ast.ForStmt:
		if st.Init != nil {
			in = w.execStmt(st.Init, in)
			if in == 0 {
				return 0
			}
		}
		if st.Cond != nil {
			in = w.scanExpr(st.Cond, in)
		}
		return w.execLoop(in, func(s int) int {
			s = w.execBlock(st.Body, s)
			if s != 0 && st.Post != nil {
				s = w.execStmt(st.Post, s)
			}
			return s
		}, st.Cond == nil)
	case *ast.RangeStmt:
		in = w.scanExpr(st.X, in)
		return w.execLoop(in, func(s int) int {
			return w.execBlock(st.Body, s)
		}, false)
	case *ast.SwitchStmt:
		if st.Init != nil {
			in = w.execStmt(st.Init, in)
			if in == 0 {
				return 0
			}
		}
		if st.Tag != nil {
			in = w.scanExpr(st.Tag, in)
		}
		return w.execCases(st.Body, in)
	case *ast.TypeSwitchStmt:
		if st.Init != nil {
			in = w.execStmt(st.Init, in)
			if in == 0 {
				return 0
			}
		}
		in = w.client.scan(st.Assign, in)
		return w.execCases(st.Body, in)
	case *ast.SelectStmt:
		return w.execCases(st.Body, in)
	case *ast.GoStmt:
		return w.client.scan(st, in)
	default:
		return w.client.scan(s, in)
	}
}

// execLoop runs a loop body to a two-iteration fixpoint over the state
// set. infinite marks `for {}` loops, whose only fallthrough is a break —
// approximated here by the union of entry and body states, which is an
// over-approximation of every break point.
func (w *flowExec) execLoop(in int, body func(int) int, infinite bool) int {
	s1 := body(in)
	s2 := body(in | s1)
	out := in | s1 | s2
	if infinite && s1 == 0 && s2 == 0 {
		return 0
	}
	return out
}

// execCases unions the outcomes of each case clause of a switch/select
// body; a missing default keeps the entry state as a possible outcome.
func (w *flowExec) execCases(body *ast.BlockStmt, in int) int {
	out := 0
	hasDefault := false
	for _, c := range body.List {
		switch cc := c.(type) {
		case *ast.CaseClause:
			if cc.List == nil {
				hasDefault = true
			}
			for _, e := range cc.List {
				in = w.scanExpr(e, in)
			}
			out |= w.execStmts(cc.Body, in)
		case *ast.CommClause:
			if cc.Comm == nil {
				hasDefault = true
			} else {
				in = w.execStmt(cc.Comm, in)
			}
			out |= w.execStmts(cc.Body, in)
		}
	}
	if !hasDefault {
		out |= in
	}
	return out
}

func (w *flowExec) scanExpr(e ast.Expr, in int) int {
	if e == nil {
		return in
	}
	return w.client.scan(e, in)
}

// hasJumps reports whether a body uses goto or labeled branches, which the
// structural interpreter does not model; callers skip such functions.
func hasJumps(body *ast.BlockStmt) bool {
	jumps := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.LabeledStmt:
			jumps = true
		case *ast.BranchStmt:
			if s.Label != nil || s.Tok == token.GOTO {
				jumps = true
			}
		}
		return !jumps
	})
	return jumps
}

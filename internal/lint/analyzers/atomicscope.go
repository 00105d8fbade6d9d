package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"kite/internal/lint/analysis"
)

// Atomicscope keeps determinism from eroding one "harmless" atomic at a
// time: inside a //kite:deterministic package, simulation code must not use
// sync/atomic, sync locks, or channel operations AT ALL. A simulation runs
// on one goroutine (DESIGN §12), so none of them can be needed; what one
// could do is couple a simulation to whatever else shares the process — a
// concurrent experiment leg, a test's helper goroutine — through a
// back-channel whose observed interleaving depends on the host scheduler.
// It may look benign (a counter, a "just in case" mutex) while quietly
// making output GOMAXPROCS-dependent.
//
// The only exception is the synchronization core: the experiment fan-out
// machinery whose job IS cross-goroutine synchronization of whole
// simulations. Those functions carry //kite:synccore on their doc comment;
// everything they run stays plain code.
//
// Goroutine launches are simdet's business (//kite:shardsafe escape);
// atomicscope covers the data-level primitives: atomic calls, sync.*
// method calls, channel send/receive/close/range/select, and channel
// creation.
var Atomicscope = &analysis.Analyzer{
	Name: "atomicscope",
	Doc:  "//kite:deterministic packages may use atomics/locks/channels only in //kite:synccore functions",
	Run:  runAtomicscope,
}

func runAtomicscope(pass *analysis.Pass) error {
	if !pkgDirective(pass.Pkg, "deterministic") {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if funcDirective(fd, "synccore") {
				continue
			}
			scanAtomicscope(pass, info, fd)
		}
	}
	return nil
}

func scanAtomicscope(pass *analysis.Pass, info *types.Info, fd *ast.FuncDecl) {
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos,
			"atomicscope: %s in deterministic shard code (%s); move it into a //kite:synccore function or drop it",
			what, fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SendStmt:
			report(e.Pos(), "channel send")
		case *ast.UnaryExpr:
			if e.Op == token.ARROW {
				report(e.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			report(e.Pos(), "select")
		case *ast.RangeStmt:
			if tv, ok := info.Types[e.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					report(e.Pos(), "channel range")
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
				if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "make":
						if tv, ok := info.Types[e]; ok {
							if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
								report(e.Pos(), "channel creation")
							}
						}
					case "close":
						report(e.Pos(), "channel close")
					}
					return true
				}
			}
			if fn := staticCallee(info, e); fn != nil && fn.Pkg() != nil {
				switch fn.Pkg().Path() {
				case "sync/atomic":
					report(e.Pos(), "atomic operation "+fn.Name())
				case "sync":
					report(e.Pos(), "sync."+fn.Name()+" call")
				}
			}
		}
		return true
	})
}

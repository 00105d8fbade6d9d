package analyzers

import (
	"go/ast"
	"go/types"
	"strconv"

	"kite/internal/lint/analysis"
)

// Simdet enforces the determinism contract behind byte-identical
// `-parallel` × `-queues` summaries: a package whose doc comment carries
// //kite:deterministic may not consult wall-clock time (time.Now and
// friends), the process-global math/rand source, or iterate over a map
// (whose order varies run to run) without a //kite:orderok justification.
//
// Concurrency is the same contract's other face: a simulation runs on one
// goroutine, and real goroutines appear only where whole simulations fan
// out (the experiment runner). A `go` statement or a `sync` import in a
// deterministic package therefore requires a //kite:shardsafe directive
// stating why host scheduling cannot leak into a timeline. sync/atomic
// stays exempt here — commutative counter adds are order-blind — and is
// atomicscope's business.
//
// The directive lives in the package doc rather than in the analyzer so
// the contract is visible where the code is; the clean-tree meta-test
// asserts that internal/sim, internal/core, and internal/experiments all
// carry it, so the scope cannot silently shrink.
var Simdet = &analysis.Analyzer{
	Name: "simdet",
	Doc:  "//kite:deterministic packages may not use wall-clock time, global math/rand, unordered map iteration, or unjustified goroutines/sync",
	Run:  runSimdet,
}

// wallClockFuncs are the time package entry points that read the host
// clock. Duration arithmetic and constants remain fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

func runSimdet(pass *analysis.Pass) error {
	if !pkgDirective(pass.Pkg, "deterministic") {
		return nil
	}
	info := pass.Pkg.Info
	dirs := newDirectiveIndex(pass.Pkg)

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.SelectorExpr:
				pkgName, ok := pkgOf(info, e)
				if !ok {
					return true
				}
				switch pkgName {
				case "time":
					if wallClockFuncs[e.Sel.Name] {
						pass.Reportf(e.Pos(), "simdet: time.%s reads the wall clock; use the sim.Engine virtual clock", e.Sel.Name)
					}
				case "math/rand", "math/rand/v2":
					pass.Reportf(e.Pos(), "simdet: global %s.%s is seeded per-process; use kite/internal/sim.Rand", pkgName, e.Sel.Name)
				}
			case *ast.RangeStmt:
				tv, ok := info.Types[e.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					if !dirs.suppressed(e.Pos(), "orderok") {
						pass.Reportf(e.Pos(), "simdet: map iteration order is nondeterministic; sort the keys or justify with //kite:orderok")
					}
				}
			case *ast.GoStmt:
				if !dirs.suppressed(e.Pos(), "shardsafe") {
					pass.Reportf(e.Pos(), "simdet: goroutines can leak scheduling into the timeline; prove isolation with //kite:shardsafe")
				}
			case *ast.ImportSpec:
				if p, err := strconv.Unquote(e.Path.Value); err == nil && p == "sync" {
					if !dirs.suppressed(e.Pos(), "shardsafe") {
						pass.Reportf(e.Pos(), "simdet: sync primitives order goroutines by host scheduling; justify with //kite:shardsafe (sync/atomic is exempt)")
					}
				}
			}
			return true
		})
	}
	return nil
}

// pkgOf resolves a selector whose X is a package name, returning the
// imported package path.
func pkgOf(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	return pn.Imported().Path(), true
}

package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"kite/internal/lint/analysis"
)

// Simdet is the determinism contract behind byte-identical `-parallel` ×
// `-queues` summaries, said once and flat: a simulation is one goroutine
// computing a function of its seed, so a package under internal/ has
//
//   - no wall clock (time.Now and friends) and no process-global math/rand;
//   - no `go` statement, no channel type or operation, no use of sync or
//     sync/atomic — host scheduling has no way into a timeline;
//   - no assignment to a package-level variable — one `-parallel` leg's
//     leftovers have no way into another's;
//   - no range over a map (whose order varies run to run) without a
//     //kite:orderok line saying why the order cannot be observed.
//
// There is no call graph and, bar orderok, no escape hatch. The scope is
// every package under internal/ except hostSide below: the rule is on by
// default, so a new package is covered the day it is created. The host
// concurrency the experiment runner needs lives in internal/fanout, which
// imports nothing of the simulator — the import graph, not an annotation,
// keeps it out of a simulation's sight. The assignment rule is syntactic: a
// method call on a package-level value is not an assignment; the sync rule
// catches the atomic a package-level counter would need.
var Simdet = &analysis.Analyzer{
	Name: "simdet",
	Doc:  "packages under internal/ have no wall clock, global math/rand, goroutines, channels, sync, package-level writes or unjustified map ranges",
	Run:  runSimdet,
}

// hostSide lists what simdet leaves alone under internal/: the analyzers
// themselves (host tools: they walk directories and time their passes) and
// the fan-out package (see Simdet). Counts live with what they count — a
// pool, a queue, a device — so no simulator package needs an exemption.
var hostSide = []string{"lint", "fanout"}

// simdetApplies reports whether path is a simulator package of the module.
func simdetApplies(modPath, path string) bool {
	rel, ok := strings.CutPrefix(path, modPath+"/internal/")
	if !ok {
		return false
	}
	for _, h := range hostSide {
		if rel == h || strings.HasPrefix(rel, h+"/") {
			return false
		}
	}
	return true
}

// wallClockFuncs are the time package entry points that read the host
// clock. Duration arithmetic and constants remain fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Sleep": true, "After": true, "Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

func runSimdet(pass *analysis.Pass) error {
	if !simdetApplies(pass.Module.Path, pass.Pkg.Path) {
		return nil
	}
	info := pass.Pkg.Info
	dirs := newDirectiveIndex(pass.Pkg)
	// host reports a construct that exists to order goroutines.
	host := func(pos token.Pos, what string) {
		pass.Reportf(pos, "simdet: %s: a simulation is one goroutine; host concurrency lives in internal/fanout", what)
	}
	write := func(lhs ast.Expr) {
		if v := pkgLevelRoot(info, lhs); v != nil {
			pass.Reportf(lhs.Pos(), "simdet: assignment to package-level %s.%s is shared by every simulation in the process; keep state in the System", v.Pkg().Name(), v.Name())
		}
	}

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
				case "sync", "sync/atomic":
					host(e.Pos(), pkgName+"."+e.Sel.Name)
				}
			case *ast.RangeStmt:
				if tv, ok := info.Types[e.X]; ok {
					switch tv.Type.Underlying().(type) {
					case *types.Map:
						if !dirs.suppressed(e.Pos(), "orderok") {
							pass.Reportf(e.Pos(), "simdet: map iteration order is nondeterministic; sort the keys or justify with //kite:orderok")
						}
					case *types.Chan:
						host(e.Pos(), "channel receive")
					}
				}
			case *ast.GoStmt:
				host(e.Pos(), "go statement")
			case *ast.ChanType:
				host(e.Pos(), "channel type")
			case *ast.SendStmt:
				host(e.Pos(), "channel send")
			case *ast.SelectStmt:
				host(e.Pos(), "select")
			case *ast.UnaryExpr:
				if e.Op == token.ARROW {
					host(e.Pos(), "channel receive")
				}
			case *ast.AssignStmt:
				if e.Tok != token.DEFINE {
					for _, l := range e.Lhs {
						write(l)
					}
				}
			case *ast.IncDecStmt:
				write(e.X)
			}
			return true
		})
	}
	return nil
}

// pkgLevelRoot resolves an lvalue — through field selections, indexing and
// dereferences — to the package-level variable it is rooted at (of this or
// an imported package), or nil.
func pkgLevelRoot(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if _, qualified := pkgOf(info, x); qualified {
				e = x.Sel
			} else {
				e = x.X
			}
		case *ast.Ident:
			if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
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

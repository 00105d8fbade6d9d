package analyzers

import (
	"go/ast"
	"go/types"

	"kite/internal/lint/analysis"
	"kite/internal/lint/loader"
)

// CalleesOf is calleesOf for the reachability test: the static and
// class-hierarchy callees of every call under node.
func CalleesOf(mod *analysis.Module, pkg *loader.Package, node ast.Node) []*types.Func {
	cs := calleesOf(mod, pkg, node, nil)
	out := make([]*types.Func, len(cs))
	for i, c := range cs {
		out[i] = c.fn
	}
	return out
}

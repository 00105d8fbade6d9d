// Directive comments are how source opts in and out of kitelint's rules:
//
//	//kite:hotpath         (func doc)  zero-allocation root; everything it
//	                                   statically calls in-module is checked
//	//kite:coldpath <why>  (func doc)  excluded from hot-path descent: runs
//	                                   only during warmup or on error paths,
//	                                   as proven by the runtime zero-alloc
//	                                   tests
//	//kite:alloc-ok <why>  (line)      one statement may allocate (pool
//	                                   growth, high-water scratch, cache
//	                                   fill); the reason is mandatory
//	//kite:orderok <why>   (line)      a map range whose effect is order-
//	                                   insensitive or explicitly sorted
//
// A line directive covers the line it sits on, or — when written on its
// own line — the line directly below it.
package analyzers

import (
	"go/ast"
	"go/token"
	"strings"

	"kite/internal/lint/loader"
)

// directiveIndex resolves line directives for one package.
type directiveIndex struct {
	pkg *loader.Package
	// byFileLine maps file -> line -> directive names present.
	byFileLine map[*ast.File]map[int][]string
}

func newDirectiveIndex(pkg *loader.Package) *directiveIndex {
	idx := &directiveIndex{pkg: pkg, byFileLine: make(map[*ast.File]map[int][]string)}
	for _, f := range pkg.Files {
		lines := make(map[int][]string)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := directiveName(c.Text)
				if !ok {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				lines[line] = append(lines[line], name)
			}
		}
		idx.byFileLine[f] = lines
	}
	return idx
}

// directiveName extracts "alloc-ok" from "//kite:alloc-ok pool growth".
func directiveName(text string) (string, bool) {
	rest, ok := strings.CutPrefix(text, "//kite:")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// suppressed reports whether pos's line, or the line above it, carries the
// named directive in its file.
func (idx *directiveIndex) suppressed(pos token.Pos, name string) bool {
	f := idx.fileFor(pos)
	if f == nil {
		return false
	}
	line := idx.pkg.Fset.Position(pos).Line
	for _, l := range []int{line, line - 1} {
		for _, d := range idx.byFileLine[f][l] {
			if d == name {
				return true
			}
		}
	}
	return false
}

func (idx *directiveIndex) fileFor(pos token.Pos) *ast.File {
	for _, f := range idx.pkg.Files {
		if f.FileStart <= pos && pos <= f.FileEnd {
			return f
		}
	}
	return nil
}

// funcDirective reports whether a function declaration's doc comment
// carries the named directive.
func funcDirective(decl *ast.FuncDecl, name string) bool {
	return commentGroupHas(decl.Doc, name)
}

func commentGroupHas(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if n, ok := directiveName(c.Text); ok && n == name {
			return true
		}
	}
	return false
}

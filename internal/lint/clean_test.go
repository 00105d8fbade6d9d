package lint_test

import (
	"go/ast"
	"strings"
	"sync"
	"testing"

	"kite/internal/lint"
	"kite/internal/lint/analysis"
)

// loadOnce shares one whole-module typecheck across the meta-tests; a
// full load costs a few seconds.
var loadOnce = sync.OnceValues(func() (*analysis.Module, error) {
	return lint.LoadModule(".")
})

// TestLintCleanTree is the suite's own acceptance test: every analyzer
// over every package of the module must report nothing. A regression that
// reintroduces an allocation on a hot path, a leaked pool buffer, or
// wall-clock time, a goroutine or a package-level write in the simulator
// fails here (and in `make lint`,
// which runs the same code). TestMutationsCaught is the other direction.
func TestLintCleanTree(t *testing.T) {
	mod, err := loadOnce()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, _, err := lint.RunTimed(mod, lint.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", lint.Format(mod, d))
	}
}

// TestFanoutSeesNoSimulation pins what lets simdet be flat: the one
// package under internal/ allowed goroutines imports nothing of the
// module, so no simulation state is reachable from where they meet.
func TestFanoutSeesNoSimulation(t *testing.T) {
	mod, err := loadOnce()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, pkg := range mod.Pkgs {
		if pkg.Path != "kite/internal/fanout" {
			continue
		}
		for _, imp := range pkg.Types.Imports() {
			if mod.InModule(imp) {
				t.Errorf("internal/fanout imports %s", imp.Path())
			}
		}
		return
	}
	t.Error("kite/internal/fanout not loaded")
}

// TestHotPathCoverage asserts that the PV data paths stay annotated: the
// netfront->netback forward path and the blkfront->blkback block path,
// plus the pool fast paths they ride on. Deleting an annotation would
// otherwise pass every test while silently disabling the proof.
func TestHotPathCoverage(t *testing.T) {
	mod, err := loadOnce()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	roots := []struct{ pkg, fn string }{
		{"kite/internal/netfront", "Send"},
		{"kite/internal/netfront", "SendBatch"},
		{"kite/internal/netfront", "onEvent"},
		{"kite/internal/netback", "onEvent"},
		{"kite/internal/netback", "Deliver"},
		{"kite/internal/blkfront", "ReadSectorsInto"},
		{"kite/internal/blkfront", "WriteSectors"},
		{"kite/internal/blkfront", "onEvent"},
		{"kite/internal/blkback", "onEvent"},
		{"kite/internal/blkback", "complete"},
		{"kite/internal/framepool", "GetLen"},
		{"kite/internal/framepool", "Release"},
		{"kite/internal/blkpool", "Get"},
		{"kite/internal/blkpool", "Release"},
		// Fleet O(active) fast paths: the shared lane's active ring (its
		// round reaches both classes' Serve and Flush through the Member
		// interface), the keyed table under the FDB and the NAT flows, the
		// doorbell bitmap, and the timer wheel benchmark/ still times.
		{"kite/internal/pvback", "Activate"},
		{"kite/internal/pvback", "link"},
		{"kite/internal/pvback", "unlink"},
		{"kite/internal/pvback", "round"},
		{"kite/internal/flowtab", "Lookup"},
		{"kite/internal/flowtab", "Insert"},
		{"kite/internal/xen", "mark"},
		{"kite/internal/xen", "scan"},
		{"kite/internal/xen", "nextPending"},
		{"kite/internal/timewheel", "Add"},
		{"kite/internal/timewheel", "Advance"},
		{"kite/internal/timewheel", "link"},
		{"kite/internal/framepool", "Push"},
		{"kite/internal/framepool", "Pop"},
	}
	for _, r := range roots {
		if !funcHasDirective(mod, r.pkg, r.fn, "//kite:hotpath") {
			t.Errorf("%s.%s: no //kite:hotpath-annotated declaration found", r.pkg, r.fn)
		}
	}
}

// funcDecls returns every function declaration named fn in the package
// (method receivers are not distinguished).
func funcDecls(mod *analysis.Module, path, fn string) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, pkg := range mod.Pkgs {
		if pkg.Path != path {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				if decl, ok := d.(*ast.FuncDecl); ok && decl.Name.Name == fn {
					out = append(out, decl)
				}
			}
		}
	}
	return out
}

// funcHasDirective reports whether at least one declaration named fn in
// the package carries the directive in its doc comment; any annotated
// declaration of that name counts.
func funcHasDirective(mod *analysis.Module, path, fn, directive string) bool {
	for _, decl := range funcDecls(mod, path, fn) {
		if decl.Doc == nil {
			continue
		}
		for _, c := range decl.Doc.List {
			if strings.HasPrefix(c.Text, directive) {
				return true
			}
		}
	}
	return false
}

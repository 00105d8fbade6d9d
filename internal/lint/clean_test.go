package lint_test

import (
	"go/ast"
	"strings"
	"sync"
	"testing"

	"kite/internal/lint"
	"kite/internal/lint/analysis"
	"kite/internal/lint/analyzers"
)

// loadOnce shares one whole-module typecheck across the meta-tests; a
// full load costs a few seconds.
var loadOnce = sync.OnceValues(func() (*analysis.Module, error) {
	return lint.LoadModule(".")
})

// TestLintCleanTree is the suite's own acceptance test: every analyzer
// over every package of the module must report nothing. A regression that
// reintroduces an allocation on a hot path, a leaked pool buffer, a raw
// xenstore key, wall-clock time in the simulator, or a blocking event
// handler fails here (and in `make lint`, which runs the same code).
func TestLintCleanTree(t *testing.T) {
	mod, err := loadOnce()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags, err := lint.Run(mod, lint.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", lint.Format(mod, d))
	}
}

// TestConcurrencyLintCleanTree runs just the four concurrency-contract
// analyzers (shardsafe, relpure, ringlink, atomicscope) and then pins the
// annotations they hinge on: the experiment fan-out must stay declared
// //kite:synccore and the intrusive ring operations //kite:ringlink; and
// the carrier and magazine returns must still be sim.PriRelease posts, or
// relpure has no handler left to prove pure.
// Deleting an annotation either breaks the clean run (a finding appears)
// or fails the pin below (the analyzer silently lost its anchor) — both
// directions are covered.
func TestConcurrencyLintCleanTree(t *testing.T) {
	mod, err := loadOnce()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	suite := []*analysis.Analyzer{
		analyzers.Shardsafe, analyzers.Relpure, analyzers.Ringlink, analyzers.Atomicscope,
	}
	diags, err := lint.Run(mod, suite)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", lint.Format(mod, d))
	}

	synccore := []struct{ pkg, fn string }{
		{"kite/internal/experiments", "RunAll"},
		{"kite/internal/experiments", "tryGo"},
	}
	for _, r := range synccore {
		if !funcHasDirective(mod, r.pkg, r.fn, "//kite:synccore") {
			t.Errorf("%s.%s: no //kite:synccore-annotated declaration found", r.pkg, r.fn)
		}
	}
	ringlink := []struct{ pkg, fn string }{
		{"kite/internal/timewheel", "alloc"},
		{"kite/internal/timewheel", "link"},
		{"kite/internal/timewheel", "release"},
		{"kite/internal/pvback", "link"},
		{"kite/internal/pvback", "unlink"},
		{"kite/internal/framepool", "stageRemote"},
		// The intrusive hand-off chain netfront's bursts travel as.
		{"kite/internal/framepool", "Push"},
	}
	for _, r := range ringlink {
		if !funcHasDirective(mod, r.pkg, r.fn, "//kite:ringlink") {
			t.Errorf("%s.%s: no //kite:ringlink-annotated declaration found", r.pkg, r.fn)
		}
	}
	// relpure starts from Engine.Post calls that name sim.PriRelease: the
	// bridge carrier's way home (one per dedicated queue, one per fleet
	// lane) and the framepool's staged remote frees.
	release := []struct{ pkg, fn string }{
		{"kite/internal/netback", "inputBatch"},
		{"kite/internal/framepool", "stageRemote"},
	}
	for _, r := range release {
		if !funcMentions(mod, r.pkg, r.fn, "PriRelease") {
			t.Errorf("%s.%s: no longer posts at sim.PriRelease; relpure lost the handler it proved", r.pkg, r.fn)
		}
	}
}

// TestDeterministicScope pins the simdet contract to the packages whose
// byte-identical output the experiment suite depends on — the event core,
// the rigs, and the control plane whose every store write is an event. Removing
// the directive would silently shrink the analyzer's scope; this test
// turns that into a failure.
func TestDeterministicScope(t *testing.T) {
	mod, err := loadOnce()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	for _, path := range []string{"kite/internal/sim", "kite/internal/core", "kite/internal/experiments", "kite/internal/timewheel",
		"kite/internal/xenstore", "kite/internal/xenbus"} {
		if !pkgHasDirective(mod, path, "//kite:deterministic") {
			t.Errorf("%s: package doc lost its //kite:deterministic directive", path)
		}
	}
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
		{"kite/internal/framepool", "Get"},
		{"kite/internal/framepool", "Release"},
		{"kite/internal/blkpool", "Get"},
		{"kite/internal/blkpool", "Release"},
		// Fleet O(active) fast paths: the shared lane's active ring (its
		// round reaches both classes' Serve and Flush through the Member
		// interface), the keyed table under the FDB and the NAT flows, the
		// two-level doorbell bitmap, and the idle-aging timer wheel.
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
		{"kite/internal/framepool", "stageRemote"},
		{"kite/internal/framepool", "Push"},
		{"kite/internal/framepool", "Pop"},
	}
	for _, r := range roots {
		if !funcHasDirective(mod, r.pkg, r.fn, "//kite:hotpath") {
			t.Errorf("%s.%s: no //kite:hotpath-annotated declaration found", r.pkg, r.fn)
		}
	}
}

func pkgHasDirective(mod *analysis.Module, path, directive string) bool {
	for _, pkg := range mod.Pkgs {
		if pkg.Path != path {
			continue
		}
		for _, f := range pkg.Files {
			if f.Doc == nil {
				continue
			}
			for _, c := range f.Doc.List {
				if strings.HasPrefix(c.Text, directive) {
					return true
				}
			}
		}
	}
	return false
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

// funcMentions reports whether some declaration named fn in the package
// uses the identifier name in its body.
func funcMentions(mod *analysis.Module, path, fn, name string) bool {
	found := false
	for _, decl := range funcDecls(mod, path, fn) {
		if decl.Body == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
			}
			return !found
		})
	}
	return found
}

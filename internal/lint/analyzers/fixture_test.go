package analyzers_test

// runFixture runs kitelint analyzers over a fixture package and checks
// their findings against expectations written in the fixture source, in
// the style of golang.org/x/tools' analysistest:
//
//	st.Write("typo-key", "v") // want `raw xenstore key literal`
//
// A `// want` comment holds one or more backquoted or double-quoted
// regular expressions; each must match a distinct diagnostic reported on
// that line. A diagnostic with no matching expectation, or an expectation
// no diagnostic matched, fails the test. Fixture import paths start with
// the module path (kite/fixtures/...) so module-membership predicates in
// the analyzers hold.

import (
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"kite/internal/lint/analysis"
	"kite/internal/lint/loader"
)

// sharedLoader is the process-wide loader: one stdlib + module typecheck
// amortized across every analyzer test instead of one per fixture, which
// is the difference between the suite finishing in seconds and in
// minutes. The loader is not concurrency-safe, so loaderMu serializes
// fixture registration and loading.
var (
	loaderMu   sync.Mutex
	loaderOnce = sync.OnceValues(func() (*loader.Loader, error) {
		return loader.New(".")
	})
)

// expectation is one regexp expected on one fixture line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// runFixture loads the fixture rooted at dir under importPath, runs the
// analyzers over it, and reports mismatches on t.
func runFixture(t *testing.T, importPath, dir string, as ...*analysis.Analyzer) {
	t.Helper()

	loaderMu.Lock()
	defer loaderMu.Unlock()
	l, err := loaderOnce()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	// Register the absolute directory so fixture positions (and the
	// fixture filter below) share one spelling.
	dir = mustAbs(t, dir)
	l.RegisterDir(importPath, dir)
	pkg, err := l.Load(importPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", importPath, err)
	}
	mod := analysis.NewModule(l.ModulePath, l.Loaded())

	var diags []analysis.Diagnostic
	for _, a := range as {
		pass := &analysis.Pass{
			Analyzer: a,
			Pkg:      pkg,
			Module:   mod,
			Report:   func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
	}

	wants := parseWants(t, pkg)

	// Only findings inside the fixture participate; analyzer descent into
	// real module packages is covered by the clean-tree test.
	for _, d := range diags {
		pos := mod.Fset.Position(d.Pos)
		if !strings.HasPrefix(pos.Filename, dir) {
			continue
		}
		if !claim(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected finding: [%s] %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected a finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func mustAbs(t *testing.T, dir string) string {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("abs %s: %v", dir, err)
	}
	return abs
}

// claim marks the first unmatched expectation on (file, line) whose regexp
// matches msg.
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRe pulls the expectation regexps out of a `// want ...` comment.
var wantRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func parseWants(t *testing.T, pkg *loader.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				pats := wantRe.FindAllString(rest, -1)
				if len(pats) == 0 {
					t.Fatalf("%s: malformed want comment %q", pos, c.Text)
				}
				for _, p := range pats {
					var lit string
					if p[0] == '`' {
						lit = p[1 : len(p)-1]
					} else {
						var err error
						lit, err = strconv.Unquote(p)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, p, err)
						}
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, lit, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

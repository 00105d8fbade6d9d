package kite

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// designHeading matches a numbered `##`/`###` heading of DESIGN.md and
	// captures its number: "## 7. Frame ownership", "### 7.4 Grant-copy".
	designHeading = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? `)
	// designCite matches a citation of a DESIGN.md section, wrapped or not,
	// and captures the section number. A trailing dot is sentence
	// punctuation, not a subsection.
	designCite = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+(?:\.\d+)?)`)
)

// TestDesignCitationsResolve holds every "DESIGN.md §N[.M]" or "DESIGN §N[.M]"
// cited in a Go comment, README.md, EXPERIMENTS.md, the Makefile or CI to a
// heading DESIGN.md has, so a section can be renumbered or deleted without
// leaving a citation pointing at nothing.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}

	cited := 0
	check := func(where, text string) {
		for _, m := range designCite.FindAllStringSubmatch(text, -1) {
			cited++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN §%s, which is no heading of DESIGN.md", where, m[1])
			}
		}
	}
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "Makefile", ".github/workflows/ci.yml"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		check(name, string(data))
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, c := range f.Comments {
			check(fset.Position(c.Pos()).String(), c.Text())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("found no citations at all; the pattern no longer matches how the tree cites DESIGN.md")
	}
}

// TestDocsWithinCaps holds DESIGN.md and EXPERIMENTS.md to their caps. The
// design record describes the tree, not its history: a run log goes to
// CHANGES.md, and a section grows only by what the tree grew.
func TestDocsWithinCaps(t *testing.T) {
	for name, max := range map[string]int{"DESIGN.md": 1000, "EXPERIMENTS.md": 500} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), "\n"); n > max {
			t.Errorf("%s is %d lines, over its cap of %d", name, n, max)
		}
	}
}

// TestDesignInventoryNamesEveryPackage requires DESIGN §3 to name, in
// backticks, every package directory under internal/.
func TestDesignInventoryNamesEveryPackage(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(design)
	start := strings.Index(text, "\n## 3. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §3")
	}
	inventory := text[start+1:]
	if end := strings.Index(inventory, "\n## "); end >= 0 {
		inventory = inventory[:end]
	}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasSuffix(path, ".go") && !strings.Contains(inventory, "`"+dir+"`") {
			t.Errorf("DESIGN §3 does not name package %s", dir)
			return filepath.SkipDir // one report per package
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// docPath matches a backticked path into the tree: `internal/sim`,
// `benchmark/micro.go:577`, `internal/lint/...`.
var docPath = regexp.MustCompile("`(?:\\./)?((?:internal|cmd|examples|benchmark)/[^`\\s]*)`")

// TestDocPathsExist requires every backticked internal/, cmd/, examples/
// or benchmark/ path in DESIGN.md, EXPERIMENTS.md and README.md to exist.
// A line number, a trailing "/..." and a placeholder such as
// "testdata/<ID>.txt" are cut off before the check.
func TestDocPathsExist(t *testing.T) {
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docPath.FindAllStringSubmatch(string(data), -1) {
			p := strings.TrimSuffix(m[1], "/...")
			if i := strings.IndexAny(p, "<*{"); i >= 0 {
				p = p[:strings.LastIndex(p[:i], "/")+1]
			}
			if i := strings.IndexByte(p, ':'); i >= 0 {
				p = p[:i]
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", name, m[1])
			}
		}
	}
}

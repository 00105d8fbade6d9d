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

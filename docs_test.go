package kite

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	// designHeading matches a numbered `##`/`###` heading of DESIGN.md and
	// captures its number and title: "## 7. Frame ownership", "### 7.4
	// Grant-copy".
	designHeading = regexp.MustCompile(`(?m)^#{2,3} (\d+(?:\.\d+)?)\.? (.*)$`)
	// designCite matches a citation of a DESIGN.md section, wrapped or not,
	// and captures the section number. A trailing dot is sentence
	// punctuation, not a subsection.
	designCite = regexp.MustCompile(`DESIGN(?:\.md)?\s+§(\d+(?:\.\d+)?)`)
	// sentenceBreak ends a sentence: a full stop, a blank line or a list
	// item's bullet.
	sentenceBreak = regexp.MustCompile(`[.!?]\s|\n\s*\n|\n\s*[-*] `)
	// citeStopWords are words a sentence and a heading may share without
	// saying that the sentence is about the heading's subject.
	citeStopWords = strings.Fields("the and of a an in on to for by is are was what one its it at as or with from that this not no per how where which who internal design kite only still each")
)

// citeWords returns the content words of s: lower case, three letters or
// more, not a stop word, not a number.
func citeWords(s string) []string {
	var out []string
	for _, w := range strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return (r < 'a' || r > 'z') && (r < '0' || r > '9')
	}) {
		if len(w) >= 3 && !slices.Contains(citeStopWords, w) && strings.Trim(w, "0123456789") != "" {
			out = append(out, w)
		}
	}
	return out
}

// sharesWord reports whether sentence and title share a content word: two
// words match when equal or when they share their first five letters (four
// if one is that short), so "pages" matches "page".
func sharesWord(sentence, title string) bool {
	for _, a := range citeWords(sentence) {
		for _, b := range citeWords(title) {
			if n := min(len(a), len(b), 5); a[:n] == b[:n] && (len(a) == len(b) || n >= 4) {
				return true
			}
		}
	}
	return false
}

// staleCitations returns the DESIGN citations in text that name no
// heading, or whose sentence shares no content word with the title of the
// heading it names. headings maps a section number to its title.
func staleCitations(text string, headings map[string]string) (stale []string, checked int) {
	for _, ix := range designCite.FindAllStringSubmatchIndex(text, -1) {
		checked++
		sec := text[ix[2]:ix[3]]
		title, ok := headings[sec]
		if !ok {
			stale = append(stale, fmt.Sprintf("§%s, which is no heading of DESIGN.md", sec))
			continue
		}
		lo, hi := 0, len(text)
		for _, m := range sentenceBreak.FindAllStringIndex(text[:ix[0]], -1) {
			lo = m[1]
		}
		if m := sentenceBreak.FindStringIndex(text[ix[1]:]); m != nil {
			hi = ix[1] + m[0]
		}
		if !sharesWord(text[lo:ix[0]]+" "+text[ix[1]:hi], title) {
			stale = append(stale, fmt.Sprintf("§%s %q in a sentence that shares no word with it: %q",
				sec, title, strings.Join(strings.Fields(text[lo:hi]), " ")))
		}
	}
	return stale, checked
}

// TestDesignCitationsResolve holds every "DESIGN.md §N[.M]" or "DESIGN §N[.M]"
// cited in a Go comment, README.md, EXPERIMENTS.md, ROADMAP.md, the
// Makefile or CI to a heading DESIGN.md has, and requires the citing
// sentence to share a content word with that heading's title. So a
// section can be renumbered or deleted without leaving a citation pointing
// at nothing, or at a section that now holds something else. A planted
// stale citation must be caught.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := map[string]string{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		headings[m[1]] = m[2]
	}
	if title := headings["12.7"]; !strings.Contains(title, "pages") {
		t.Fatalf("DESIGN §12.7 is %q; the planted citations below assume its 2 MiB pages", title)
	}
	planted := "The fleet's heap sits on 2 MiB pages (DESIGN §12.7). A grant entry holds no pointer\n(DESIGN §12.7)."
	if stale, _ := staleCitations(planted, headings); len(stale) != 1 || !strings.Contains(stale[0], "grant entry") {
		t.Fatalf("planted citations reported as %q, want only the grant entry's", stale)
	}

	cited := 0
	check := func(where, text string) {
		stale, n := staleCitations(text, headings)
		cited += n
		for _, s := range stale {
			t.Errorf("%s cites DESIGN %s", where, s)
		}
	}
	for _, name := range []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md", "Makefile", ".github/workflows/ci.yml"} {
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

// TestDesignInventoryNamesEveryPackage requires DESIGN §3's inventory to
// name, in backticks, every package directory under internal/.
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

// docIdent matches a backticked Go identifier of the tree: `pkg.Name` with
// Name exported, or `pkg.Type.Member`, optionally followed by type
// parameters or a call: `sim.Line[T]`, `experiments.Registry()`. Metric
// names such as `sim.events_per_op` are lower case after the dot and do not
// match.
var docIdent = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z]\\w*)(?:\\.([A-Za-z_]\\w*))?(?:\\[[^`\\]]*\\]|\\([^`]*\\))?`")

// treeDecls returns the declarations of the root package (kite) and of
// every package under internal/, by package name: each top-level name, and
// "Type.Member" for each method, struct field and interface method.
func treeDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	fset := token.NewFileSet()
	add := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		names := decls[pkg]
		if names == nil {
			names = map[string]bool{}
			decls[pkg] = names
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch r := recv.(type) {
				case *ast.IndexExpr:
					recv = r.X
				case *ast.IndexListExpr:
					recv = r.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names[id.Name+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						var fields []*ast.Field
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields.List
						case *ast.InterfaceType:
							fields = ty.Methods.List
						}
						for _, fl := range fields {
							for _, n := range fl.Names {
								names[s.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	roots, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range roots {
		add(p)
	}
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			add(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// TestDocIdentsResolve requires every backticked `pkg.Name` or
// `pkg.Type.Member` in DESIGN.md, EXPERIMENTS.md and README.md whose pkg is
// the root package (kite) or a package under internal/ to name a
// declaration in the tree. Standard-library names are not checked. The
// first column of DESIGN §15's tables is exempt: it names what was deleted.
func TestDocIdentsResolve(t *testing.T) {
	decls := treeDecls(t)
	checked := 0
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		inDeleted := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "## ") {
				inDeleted = name == "DESIGN.md" && strings.HasPrefix(line, "## 15. ")
			}
			if inDeleted && strings.HasPrefix(line, "|") {
				if cut := strings.Index(line[1:], "|"); cut >= 0 {
					line = line[cut+1:]
				}
			}
			for _, m := range docIdent.FindAllStringSubmatch(line, -1) {
				names, ok := decls[m[1]]
				if !ok {
					continue // a standard-library or other outside package
				}
				checked++
				ident := m[2]
				if m[3] != "" {
					ident += "." + m[3]
				}
				if !names[ident] {
					t.Errorf("%s:%d names %s.%s, which nothing in the tree declares", name, i+1, m[1], ident)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("checked no identifiers; the pattern no longer matches how the docs cite Go names")
	}
}

// docTestName matches a backticked bare test name: `TestX`, `FuzzX` or
// `BenchmarkX`, optionally with a subtest path or a call after it
// (`TestX/case`, `TestX()`). A name inside a command (`go test -run
// TestX ./...`) is a pattern, not a citation, and does not match.
var docTestName = regexp.MustCompile("`((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)(?:/[^`\\s]*|\\(\\))?`")

// testFuncs returns the name of every top-level function in a _test.go
// file anywhere in the module, outside testdata and build output.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil {
				funcs[fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// staleTestNames returns the backticked test names in text that funcs
// does not hold, each with its line number.
func staleTestNames(text string, funcs map[string]bool) (stale []string, checked int) {
	for i, line := range strings.Split(text, "\n") {
		for _, m := range docTestName.FindAllStringSubmatch(line, -1) {
			checked++
			if !funcs[m[1]] {
				stale = append(stale, fmt.Sprintf("%d: %s", i+1, m[1]))
			}
		}
	}
	return stale, checked
}

// TestDocTestNamesResolve requires every backticked Test…, Fuzz… or
// Benchmark… name in DESIGN.md, EXPERIMENTS.md and README.md to be a
// function in some _test.go of the module. ROADMAP.md is not read: it
// names tests that are planned. A planted stale name must be caught.
func TestDocTestNamesResolve(t *testing.T) {
	funcs := testFuncs(t)
	if stale, _ := staleTestNames("see `TestShapes` and `TestNoSuchCheck/case`", funcs); len(stale) != 1 || stale[0] != "1: TestNoSuchCheck" {
		t.Fatalf("a planted stale name was reported as %q, want [1: TestNoSuchCheck]", stale)
	}
	checked := 0
	for _, name := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		stale, n := staleTestNames(string(data), funcs)
		checked += n
		for _, s := range stale {
			t.Errorf("%s:%s names no test function in the tree", name, s)
		}
	}
	if checked == 0 {
		t.Fatal("checked no test names; the pattern no longer matches how the docs cite tests")
	}
}

//go:build audit

package lint_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestAuditMutations is the slow half of the audit (`make audit`, tens of
// minutes): each row of the mutation table is seeded alone in a scratch
// copy of the module — tests included — and the module's own tests, bar
// internal/lint's, run on it. A row that names tests in caught must fail
// each of them; a row that names none must pass the whole suite, and under
// -race as well when it asks. A row no test fails on is the reason its
// analyzer exists; when such a row starts failing a test, that test has
// taken over the catch and DESIGN §11's table wants updating.
func TestAuditMutations(t *testing.T) {
	root, tmp := moduleRoot(t), t.TempDir()
	copyModule(t, root, tmp, true)
	list, err := goIn(tmp, "list", "./...")
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, list)
	}
	var pkgs []string
	for _, p := range strings.Fields(list) {
		if !strings.Contains(p, "/internal/lint") {
			pkgs = append(pkgs, p)
		}
	}

	for _, m := range mutations {
		t.Run(m.id, func(t *testing.T) {
			touched := map[string][]byte{} // file -> pristine content
			for _, e := range append([]edit{m.edit}, m.also...) {
				if _, ok := touched[e.file]; !ok {
					data, err := os.ReadFile(filepath.Join(tmp, e.file))
					if err != nil {
						t.Fatal(err)
					}
					touched[e.file] = data
				}
			}
			defer func() {
				for f, data := range touched {
					if err := os.WriteFile(filepath.Join(tmp, f), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}()
			if err := m.apply(tmp); err != nil {
				t.Fatal(err)
			}
			check(t, "go test", m.caught, tmp, append([]string{"test", "-timeout", "300s"}, pkgs...))
			if m.race || len(m.raceCaught) > 0 {
				check(t, "go test -race", m.raceCaught, tmp, append([]string{"test", "-race", "-timeout", "900s"}, pkgs...))
			}
		})
	}
}

var failLine = regexp.MustCompile(`(?m)^\s*--- FAIL: (\S+)`)

// check runs one go command in dir and holds its outcome to want: every
// named test failed, or, with none named, nothing did.
func check(t *testing.T, what string, want []string, dir string, args []string) {
	t.Helper()
	out, err := goIn(dir, args...)
	failed := map[string]bool{}
	for _, m := range failLine.FindAllStringSubmatch(out, -1) {
		failed[m[1]] = true
	}
	if len(want) == 0 {
		if err != nil {
			t.Errorf("%s fails on this row, which the table says nothing catches:\n%s", what, tail(out))
		}
		return
	}
	for _, name := range want {
		if !failed[name] {
			t.Errorf("%s: %s did not fail (err=%v):\n%s", what, name, err, tail(out))
		}
	}
}

func goIn(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// tail keeps the end of a long test log.
func tail(s string) string {
	const keep = 4000
	if len(s) > keep {
		return "…" + s[len(s)-keep:]
	}
	return s
}

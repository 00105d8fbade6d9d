// Package lint wires the kitelint analyzer suite together: it loads the
// whole module through internal/lint/loader, runs every analyzer over
// every package, and returns position-sorted, deduplicated diagnostics.
// Both cmd/kitelint and the clean-tree meta-test drive this entry point,
// so the CLI and `go test` enforce exactly the same rules.
package lint

import (
	"fmt"
	"sort"
	"time"

	"kite/internal/lint/analysis"
	"kite/internal/lint/analyzers"
	"kite/internal/lint/loader"
)

// LoadModule typechecks every package of the module containing dir and
// returns the whole-program view.
func LoadModule(dir string) (*analysis.Module, error) {
	l, err := loader.New(dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	return analysis.NewModule(l.ModulePath, pkgs), nil
}

// Timing records one analyzer's wall-clock over the whole module; the
// module load/typecheck happens once before any analyzer runs, so these
// measure analysis alone.
type Timing struct {
	Name    string
	Elapsed time.Duration
}

// RunTimed executes the given analyzers over every package of the module
// and returns the findings sorted by position, with each analyzer's
// wall-clock for `kitelint -v`. Findings that landed on the same position
// from different passes (a shared callee reached from hot roots in two
// packages) are reported once.
func RunTimed(mod *analysis.Module, as []*analysis.Analyzer) ([]analysis.Diagnostic, []Timing, error) {
	type key struct {
		analyzer string
		pos      string
		msg      string
	}
	seen := make(map[key]bool)
	var out []analysis.Diagnostic
	timings := make([]Timing, 0, len(as))
	for _, a := range as {
		start := time.Now()
		for _, pkg := range mod.Pkgs {
			pass := &analysis.Pass{
				Analyzer: a,
				Pkg:      pkg,
				Module:   mod,
				Report: func(d analysis.Diagnostic) {
					k := key{d.Analyzer, mod.Fset.Position(d.Pos).String(), d.Message}
					if seen[k] {
						return
					}
					seen[k] = true
					out = append(out, d)
				},
			}
			if err := a.Run(pass); err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		timings = append(timings, Timing{Name: a.Name, Elapsed: time.Since(start)})
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := mod.Fset.Position(out[i].Pos), mod.Fset.Position(out[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return out[i].Message < out[j].Message
	})
	return out, timings, nil
}

// All returns the full analyzer suite.
func All() []*analysis.Analyzer { return analyzers.All() }

// Format renders one diagnostic the way go vet does.
func Format(mod *analysis.Module, d analysis.Diagnostic) string {
	return fmt.Sprintf("%s: [%s] %s", mod.Fset.Position(d.Pos), d.Analyzer, d.Message)
}

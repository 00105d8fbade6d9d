// Command kitelint runs the repository's invariant analyzers (hotpath,
// poolref, simdet) over the whole module and prints any findings in
// go-vet style. It exits non-zero when a finding exists, so `make lint` and
// CI fail the build on a violated invariant.
//
// Usage:
//
//	kitelint [-v] [-list] [dir]
//
// dir defaults to the current directory; the containing module is
// analyzed in full. The module is loaded and typechecked exactly once and
// every analyzer shares that one types.Info view; -v prints the load time
// and each analyzer's wall-clock to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"kite/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	verbose := flag.Bool("v", false, "print load and per-analyzer timing to stderr")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := "."
	if flag.NArg() > 0 {
		dir = flag.Arg(0)
	}

	loadStart := time.Now()
	mod, err := lint.LoadModule(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kitelint:", err)
		os.Exit(2)
	}
	loadTime := time.Since(loadStart)

	diags, timings, err := lint.RunTimed(mod, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "kitelint:", err)
		os.Exit(2)
	}
	if *verbose {
		fmt.Fprintf(os.Stderr, "kitelint: load+typecheck %d pkgs in %v\n", len(mod.Pkgs), loadTime.Round(time.Millisecond))
		for _, tm := range timings {
			fmt.Fprintf(os.Stderr, "kitelint: %-12s %v\n", tm.Name, tm.Elapsed.Round(time.Millisecond))
		}
	}
	for _, d := range diags {
		fmt.Println(lint.Format(mod, d))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "kitelint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

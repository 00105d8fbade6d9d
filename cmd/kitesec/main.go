// Command kitesec prints the security analyses of §5.1: syscall
// inventories, the CVE mitigation matrix (Table 3 and the toolstack CVEs),
// the driver-CVE trend (Fig 1a), and the typed ROP gadget counts (Figs
// 1b/5). With -loc it also counts this repository's lines of code per
// module — the Table 1 analogue for the reproduction itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"kite/internal/experiments"
	"kite/internal/guestos"
	"kite/internal/metrics"
	"kite/internal/security"
)

func main() {
	rop := flag.Bool("rop", true, "print the ROP gadget counts")
	cves := flag.Bool("cves", true, "print the CVE analyses")
	syscalls := flag.Bool("syscalls", true, "print the syscall inventories")
	loc := flag.Bool("loc", false, "count this repository's LOC per module (Table 1 analogue)")
	flag.Parse()

	run(os.Stdout, *syscalls, *cves, *rop)
	if *loc {
		if err := printLOC(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "kitesec: %v\n", err)
			os.Exit(1)
		}
	}
}

// run writes the selected analyses to w.
func run(w io.Writer, syscalls, cves, rop bool) {
	if syscalls {
		printSyscalls(w)
	}
	if cves {
		fmt.Fprintln(w, experiments.Fig1aDriverCVEs().Table.String())
		fmt.Fprintln(w, experiments.Table3().Table.String())
		printToolstackCVEs(w)
	}
	if rop {
		fmt.Fprintln(w, experiments.Fig1bFig5ROP().Table.String())
		printCategoryBreakdown(w)
	}
}

func printSyscalls(w io.Writer) {
	t := metrics.NewTable("FIG4A: retained system calls",
		"profile", "count", "examples")
	rows := []struct {
		name string
		list []string
	}{
		{"ubuntu driver domain", guestos.UbuntuDriverDomainSyscalls},
		{"kite network", guestos.KiteNetworkSyscalls},
		{"kite storage", guestos.KiteStorageSyscalls},
	}
	for _, r := range rows {
		ex := strings.Join(r.list[:min(5, len(r.list))], ",") + ",..."
		t.AddRow(r.name, fmt.Sprintf("%d", len(r.list)), ex)
	}
	fmt.Fprintln(w, t.String())
	fmt.Fprintf(w, "  full Linux syscall surface: ~%d\n\n", guestos.TotalLinuxSyscalls)
}

func printToolstackCVEs(w io.Writer) {
	t := metrics.NewTable("toolstack CVEs avoided by dropping xen-utils/libxl/python",
		"cve", "needs", "ubuntu", "kite")
	u := guestos.UbuntuDriverDomain()
	k := guestos.KiteNetworkDomain()
	verdict := func(c security.CVE, p *guestos.Profile) string {
		if security.Applies(c, p) {
			return "VULNERABLE"
		}
		return "mitigated"
	}
	for _, c := range security.ToolstackCVEs() {
		t.AddRow(c.ID, strings.Join(c.Components, "+"), verdict(c, u), verdict(c, k))
	}
	fmt.Fprintln(w, t.String())
	fmt.Fprintf(w, "  plus %d crafted-application and %d shell-dependent CVE classes foreclosed by the unikernel model\n\n",
		security.CraftedAppCVECount, security.ShellCVECount)
}

func printCategoryBreakdown(w io.Writer) {
	t := metrics.NewTable("FIG5: gadget categories (Kite vs Default kernel)",
		"category", "kite", "default", "ratio")
	kite := security.GadgetTable[0].Counts
	def := security.GadgetTable[1].Counts
	for cat := security.Category(0); cat < security.NumCategories; cat++ {
		t.AddRow(cat.String(), fmt.Sprintf("%d", kite[cat]), fmt.Sprintf("%d", def[cat]),
			metrics.FormatFloat(metrics.Ratio(float64(def[cat]), float64(kite[cat]))))
	}
	fmt.Fprintln(w, t.String())
}

// printLOC counts non-blank lines of Go per package directory.
func printLOC(w io.Writer) error {
	counts := map[string]int{}
	err := filepath.Walk(".", func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n := 0
		for _, line := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(line) != "" {
				n++
			}
		}
		counts[filepath.Dir(path)] += n
		return nil
	})
	if err != nil {
		return err
	}
	dirs := make([]string, 0, len(counts))
	for d := range counts {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	t := metrics.NewTable("TABLE 1 analogue: this reproduction's LOC by module",
		"module", "loc")
	total := 0
	for _, d := range dirs {
		t.AddRow(d, fmt.Sprintf("%d", counts[d]))
		total += counts[d]
	}
	t.AddRow("TOTAL", fmt.Sprintf("%d", total))
	fmt.Fprintln(w, t.String())
	return nil
}

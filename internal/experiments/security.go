package experiments

import (
	"fmt"

	"kite/internal/core"
	"kite/internal/guestos"
	"kite/internal/metrics"
	"kite/internal/security"
	"kite/internal/sim"
)

// Fig1aDriverCVEs renders Figure 1a: driver CVEs per year for Linux and
// Windows.
func Fig1aDriverCVEs() *Result {
	res := &Result{ID: "FIG1A", Title: "driver CVEs per year",
		Table: metrics.NewTable("FIG1A: driver CVEs (cve.mitre.org)",
			"year", "linux", "windows")}
	for _, y := range security.DriverCVEsByYear() {
		res.Table.AddRow(fmt.Sprintf("%d", y.Year),
			fmt.Sprintf("%d", y.Linux), fmt.Sprintf("%d", y.Windows))
		res.Pairs = append(res.Pairs, Pair{Metric: fmt.Sprintf("%d", y.Year),
			Linux: float64(y.Linux), Kite: float64(y.Windows), Unit: "CVEs"})
	}
	res.Notes = append(res.Notes, "driver CVEs surge on both OS families — the motivation for isolating drivers")
	return res
}

// Fig1bFig5ROP renders Figures 1b and 5 from security.GadgetTable: total
// and per-category gadget counts across kernel configurations.
func Fig1bFig5ROP() *Result {
	res := &Result{ID: "FIG1B/5", Title: "ROP gadgets by kernel configuration",
		Table: metrics.NewTable("FIG1B/FIG5: ROP gadgets",
			"config", "total", "datamove", "arith", "logic", "ctrlflow", "ret")}
	var kiteTotal, defaultTotal, ubuntuTotal float64
	for _, row := range security.GadgetTable {
		counts := row.Counts
		total := security.TotalGadgets(counts)
		res.Table.AddRow(row.Name,
			fmt.Sprintf("%d", total),
			fmt.Sprintf("%d", counts[security.CatDataMove]),
			fmt.Sprintf("%d", counts[security.CatArithmetic]),
			fmt.Sprintf("%d", counts[security.CatLogic]),
			fmt.Sprintf("%d", counts[security.CatControlFlow]),
			fmt.Sprintf("%d", counts[security.CatRET]))
		switch row.Name {
		case "Kite":
			kiteTotal = float64(total)
		case "Default":
			defaultTotal = float64(total)
		case "Ubuntu":
			ubuntuTotal = float64(total)
		}
	}
	res.Pairs = append(res.Pairs,
		Pair{Metric: "default/kite", Linux: defaultTotal, Kite: kiteTotal, Unit: "gadgets"},
		Pair{Metric: "ubuntu/kite", Linux: ubuntuTotal, Kite: kiteTotal, Unit: "gadgets"})
	res.Notes = append(res.Notes,
		fmt.Sprintf("default config has %.1fx Kite's gadgets (paper: ~4x); Ubuntu %.0fx",
			defaultTotal/kiteTotal, ubuntuTotal/kiteTotal))
	return res
}

// Fig4Footprint renders Figure 4: syscall counts (4a), kernel image sizes
// (4b), and boot times (4c).
func Fig4Footprint() *Result {
	res := &Result{ID: "FIG4", Title: "syscalls, image size, boot time",
		Table: metrics.NewTable("FIG4: footprint comparison",
			"metric", "ubuntu", "kite-net", "kite-storage")}
	u := guestos.UbuntuDriverDomain()
	kn := guestos.KiteNetworkDomain()
	ks := guestos.KiteStorageDomain()
	res.Table.AddRow("syscalls",
		fmt.Sprintf("%d", len(u.Syscalls)),
		fmt.Sprintf("%d", len(kn.Syscalls)),
		fmt.Sprintf("%d", len(ks.Syscalls)))
	res.Table.AddRow("kernel image (MB)",
		fmt.Sprintf("%.1f", float64(u.KernelImageBytes())/(1<<20)),
		fmt.Sprintf("%.1f", float64(kn.KernelImageBytes())/(1<<20)),
		fmt.Sprintf("%.1f", float64(ks.KernelImageBytes())/(1<<20)))
	res.Table.AddRow("boot time (s)",
		fmt.Sprintf("%.0f", u.BootTime().Seconds()),
		fmt.Sprintf("%.0f", kn.BootTime().Seconds()),
		fmt.Sprintf("%.0f", ks.BootTime().Seconds()))
	res.Pairs = append(res.Pairs,
		Pair{Metric: "syscalls", Linux: float64(len(u.Syscalls)), Kite: float64(len(kn.Syscalls)), Unit: "count"},
		Pair{Metric: "image", Linux: float64(u.KernelImageBytes()), Kite: float64(kn.KernelImageBytes()), Unit: "bytes"},
		Pair{Metric: "boot", Linux: u.BootTime().Seconds(), Kite: kn.BootTime().Seconds(), Unit: "s"})
	res.Notes = append(res.Notes,
		"paper: 171 vs 14/18 syscalls (10x), ~43 vs ~4 MB image (10x), 75 vs 7 s boot (10x)")
	return res
}

// Fig4cBootTime runs experiment E1 for real: boot both network driver
// domains on the simulator and measure time until each serves (claim C1:
// Kite at least 10x faster).
func Fig4cBootTime() *Result {
	res := newResult("FIG4C", "measured driver domain boot time")
	boot := func(kind core.DriverKind) sim.Time {
		tb := core.NewTestbed(0xB007)
		nd, err := tb.System.CreateNetworkDomain(core.NetworkDomainConfig{
			Kind: kind, NIC: tb.ServerNIC, Boot: true,
		})
		if err != nil {
			panic(err)
		}
		drive(tb.System, nd.Ready, 1_000_000)
		return tb.System.Eng.Now()
	}
	linux := boot(core.KindLinux)
	kite := boot(core.KindKite)
	res.AddPair("boot-to-service", linux.Seconds(), kite.Seconds(), "s")
	res.Notes = append(res.Notes,
		fmt.Sprintf("paper fig 4c: 75 s vs 7 s; measured %.1f s vs %.1f s (%.1fx)",
			linux.Seconds(), kite.Seconds(), linux.Seconds()/kite.Seconds()))
	return res
}

// Table3 renders the CVE mitigation matrix: each of the 11 CVEs against
// the Ubuntu driver domain and both Kite domains.
func Table3() *Result {
	res := &Result{ID: "TAB3", Title: "CVEs prevented by discarding syscalls",
		Table: metrics.NewTable("TABLE 3: syscall-gated CVEs",
			"cve", "syscalls", "ubuntu", "kite-net", "kite-storage")}
	u := guestos.UbuntuDriverDomain()
	kn := guestos.KiteNetworkDomain()
	ks := guestos.KiteStorageDomain()
	applyStr := func(cve security.CVE, p *guestos.Profile) string {
		if security.Applies(cve, p) {
			return "VULNERABLE"
		}
		return "mitigated"
	}
	mitigatedKite := 0
	for _, cve := range security.Table3CVEs() {
		if security.Mitigated(cve, kn) && security.Mitigated(cve, ks) {
			mitigatedKite++
		}
		res.Table.AddRow(cve.ID, fmt.Sprintf("%v", cve.Syscalls),
			applyStr(cve, u), applyStr(cve, kn), applyStr(cve, ks))
	}
	res.Pairs = append(res.Pairs, Pair{Metric: "mitigated-by-kite",
		Linux: 0, Kite: float64(mitigatedKite), Unit: fmt.Sprintf("of %d", len(security.Table3CVEs()))})
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d/11 CVEs mitigated by both Kite domains (paper: 11); plus %d crafted-app and %d shell CVE classes foreclosed",
			mitigatedKite, security.CraftedAppCVECount, security.ShellCVECount))
	return res
}

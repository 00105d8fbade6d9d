package security

import (
	"testing"

	"kite/internal/guestos"
)

func TestTable3AllMitigatedByKite(t *testing.T) {
	net := guestos.KiteNetworkDomain()
	stor := guestos.KiteStorageDomain()
	cves := Table3CVEs()
	if len(cves) != 11 {
		t.Fatalf("Table 3 has %d CVEs, want 11", len(cves))
	}
	for _, cve := range cves {
		if !Mitigated(cve, net) {
			t.Errorf("%s not mitigated by Kite network domain", cve.ID)
		}
		if !Mitigated(cve, stor) {
			t.Errorf("%s not mitigated by Kite storage domain", cve.ID)
		}
	}
}

func TestTable3AppliesToUbuntu(t *testing.T) {
	u := guestos.UbuntuDriverDomain()
	applicable := 0
	for _, cve := range Table3CVEs() {
		if Applies(cve, u) {
			applicable++
		}
	}
	// Most Table 3 CVEs use syscalls a Linux driver domain cannot shed
	// (clone, execve, rename, ...). The compat_sys_* ones need the 32-bit
	// path, which our 64-bit inventory doesn't list.
	if applicable < 8 {
		t.Fatalf("only %d of 11 Table 3 CVEs apply to Ubuntu, want >= 8", applicable)
	}
}

func TestToolstackCVEsNeedComponents(t *testing.T) {
	u := guestos.UbuntuDriverDomain()
	k := guestos.KiteNetworkDomain()
	for _, cve := range ToolstackCVEs() {
		if !Applies(cve, u) {
			t.Errorf("%s should apply to the Ubuntu driver domain", cve.ID)
		}
		if Applies(cve, k) {
			t.Errorf("%s should not apply to Kite", cve.ID)
		}
	}
}

func TestFamilyGate(t *testing.T) {
	// A Linux CVE whose syscalls Kite *does* keep is still inapplicable:
	// Kite runs NetBSD-derived code.
	cve := CVE{ID: "TEST", Family: guestos.FamilyLinux, Syscalls: []string{"read"}}
	if Applies(cve, guestos.KiteNetworkDomain()) {
		t.Fatal("Linux CVE applied to NetBSD-derived unikernel")
	}
	if !Applies(cve, guestos.UbuntuDriverDomain()) {
		t.Fatal("CVE with retained syscall should apply to Ubuntu")
	}
}

func TestDriverCVETrend(t *testing.T) {
	years := DriverCVEsByYear()
	if len(years) < 5 {
		t.Fatal("need multiple years for Fig 1a")
	}
	for i := 1; i < len(years); i++ {
		if years[i].Linux <= years[i-1].Linux {
			t.Fatal("Fig 1a Linux driver CVEs must rise year over year")
		}
		if years[i].Year != years[i-1].Year+1 {
			t.Fatal("years not consecutive")
		}
	}
}

func TestFig1bOrderingAndRatios(t *testing.T) {
	if GadgetTable[0].Name != "Kite" {
		t.Fatalf("first gadget row is %s, want Kite", GadgetTable[0].Name)
	}
	totals := make([]uint64, len(GadgetTable))
	for i, c := range GadgetTable {
		totals[i] = TotalGadgets(c.Counts)
	}
	// Kite smallest; every Linux config larger; ordering strict.
	for i := 1; i < len(totals); i++ {
		if totals[i] <= totals[i-1] {
			t.Fatalf("gadget totals not increasing: %v", totals)
		}
	}
	// Fig 5: even the minimal default config has ~4x Kite's gadgets.
	ratio := float64(totals[1]) / float64(totals[0])
	if ratio < 3 || ratio > 6 {
		t.Fatalf("default/kite gadget ratio = %.1f, want ~4", ratio)
	}
	// Fig 1b: full-distro kernels reach millions of gadgets.
	if totals[len(totals)-1] < 1_000_000 {
		t.Fatalf("ubuntu gadgets = %d, want millions", totals[len(totals)-1])
	}
}

func TestEveryCategoryInEveryRow(t *testing.T) {
	for _, c := range GadgetTable {
		for cat := Category(0); cat < NumCategories; cat++ {
			if c.Counts[cat] == 0 {
				t.Errorf("%s has no %v gadgets", c.Name, cat)
			}
		}
	}
}

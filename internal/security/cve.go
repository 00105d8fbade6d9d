// Package security implements the paper's security analyses: the CVE
// applicability model (Table 3, §5.1.1, Fig 1a) and the typed ROP gadget
// counts of Figs 1b and 5. A CVE applies to a profile only if the profile
// derives from the vulnerable code base AND still ships every syscall and
// component the exploit needs; Kite domains dodge whole classes either
// way — they run NetBSD-derived code and discard unused syscalls at link
// time.
package security

import "kite/internal/guestos"

// CVE is one vulnerability record.
type CVE struct {
	ID           string
	Family       guestos.Family // vulnerable code base
	Syscalls     []string       // syscalls the exploit requires (any listed)
	Components   []string       // userspace components required (any listed)
	NeedsShell   bool           // requires running a shell
	NeedsCrafted bool           // requires running a crafted application
	Description  string
}

// Table3CVEs are the 11 CVEs of Table 3, prevented in Kite by discarding
// the syscalls their exploits require.
func Table3CVEs() []CVE {
	l := guestos.FamilyLinux
	return []CVE{
		{ID: "CVE-2021-35039", Family: l, Syscalls: []string{"init_module"},
			Description: "loading unsigned kernel modules via init_module"},
		{ID: "CVE-2019-3901", Family: l, Syscalls: []string{"execve"},
			Description: "race lets local attackers leak data from setuid programs"},
		{ID: "CVE-2018-18281", Family: l, Syscalls: []string{"ftruncate", "mremap"},
			Description: "access to an already freed and reused physical page"},
		{ID: "CVE-2018-1068", Family: l, Syscalls: []string{"compat_sys_setsockopt"},
			Description: "privileged user arbitrarily writes kernel memory range"},
		{ID: "CVE-2017-18344", Family: l, Syscalls: []string{"timer_create"},
			Description: "userspace applications read arbitrary kernel memory"},
		{ID: "CVE-2017-17053", Family: l, Syscalls: []string{"modify_ldt", "clone"},
			Description: "use-after-free via a crafted program"},
		{ID: "CVE-2016-6198", Family: l, Syscalls: []string{"rename"},
			Description: "local users cause denial of service"},
		{ID: "CVE-2016-6197", Family: l, Syscalls: []string{"rename", "unlink"},
			Description: "local users cause denial of service"},
		{ID: "CVE-2014-3180", Family: l, Syscalls: []string{"compat_sys_nanosleep"},
			Description: "uninitialized data allows out-of-bounds read"},
		{ID: "CVE-2009-0028", Family: l, Syscalls: []string{"clone"},
			Description: "unprivileged child sends arbitrary signals to parent"},
		{ID: "CVE-2009-0835", Family: l, Syscalls: []string{"chmod", "stat"},
			Description: "local users bypass access restrictions via crafted syscalls"},
	}
}

// ToolstackCVEs are the xen-utils/libxl/python vulnerabilities §1 and
// §5.1.1 cite, avoided by not shipping those components at all.
func ToolstackCVEs() []CVE {
	l := guestos.FamilyLinux
	return []CVE{
		{ID: "CVE-2013-2072", Family: l, Components: []string{"python3", "xen-utils"},
			Description: "buffer overflow in Python bindings for xc allows privilege escalation"},
		{ID: "CVE-2016-4963", Family: l, Components: []string{"libxl"},
			Description: "libxl device-handling race allows unauthorized backend access"},
		{ID: "CVE-2015-8550", Family: l, Components: []string{"hotplug-scripts"},
			Description: "double-fetch in PV backends via compiler optimization"},
	}
}

// CraftedAppCVECount and ShellCVECount are the paper's counts of reported
// Linux CVEs that need a crafted application (172) or a shell (92) —
// attacks unavailable on a single-purpose unikernel with no way to run
// either (§5.1.1).
const (
	CraftedAppCVECount = 172
	ShellCVECount      = 92
)

// Applies reports whether a CVE is exploitable on the given profile.
func Applies(cve CVE, p *guestos.Profile) bool {
	if cve.Family != p.Family {
		return false
	}
	for _, sc := range cve.Syscalls {
		if !p.HasSyscall(sc) {
			return false
		}
	}
	for _, comp := range cve.Components {
		if !p.HasComponent(comp) {
			return false
		}
	}
	if cve.NeedsShell && !p.HasComponent("bash") {
		return false
	}
	if cve.NeedsCrafted && p.Family == guestos.FamilyNetBSD {
		return false // no way to load foreign applications into a unikernel
	}
	return true
}

// Mitigated is the complement of Applies, in Table 3's terms.
func Mitigated(cve CVE, p *guestos.Profile) bool { return !Applies(cve, p) }

// DriverCVEYear is one year of Fig 1a's driver-CVE statistics
// (cve.mitre.org counts for Linux and Windows drivers).
type DriverCVEYear struct {
	Year    int
	Linux   int
	Windows int
}

// DriverCVEsByYear returns the Fig 1a series: driver CVEs keep surging
// across both major OS families, motivating isolation of drivers in
// separate VMs.
func DriverCVEsByYear() []DriverCVEYear {
	return []DriverCVEYear{
		{2016, 29, 22},
		{2017, 43, 36},
		{2018, 54, 48},
		{2019, 68, 61},
		{2020, 87, 79},
		{2021, 118, 96},
	}
}

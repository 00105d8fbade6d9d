// Package guestos defines the operating-system profiles of every VM kind
// in the reproduction: the Ubuntu 18.04 guests and driver domains of the
// baseline, and Kite's rumprun-based unikernel domains. A profile carries
// the inventories the security and footprint experiments operate on —
// retained syscalls (Fig 4a), image composition (Fig 4b), boot phases
// (Fig 4c) — plus scheduling parameters the toolstack uses when building
// the domain.
package guestos

import "kite/internal/sim"

// Family is the OS code base a profile derives from.
type Family int

// OS families.
const (
	FamilyLinux Family = iota
	FamilyNetBSD
	FamilyWindows // only in the CVE statistics (Fig 1a)
)

// ComponentKind categorizes image components.
type ComponentKind int

// Component kinds.
const (
	KindKernel ComponentKind = iota
	KindModule
	KindLib
	KindTool
	KindScript
	KindApp
)

// Component is one piece of a VM image.
type Component struct {
	Name string
	Kind ComponentKind
	// SizeBytes is the on-disk size.
	SizeBytes int64
}

// BootPhase is one step of a profile's boot sequence.
type BootPhase struct {
	Name     string
	Duration sim.Time
}

// Profile describes one VM kind.
type Profile struct {
	Name   string
	Family Family

	Components []Component
	Syscalls   []string
	BootPhases []BootPhase

	// Toolstack parameters (Table 2 / §5 assignments).
	VCPUs      int
	MemBytes   int64
	IRQLatency sim.Time
}

// ImageBytes returns the total image size.
func (p *Profile) ImageBytes() int64 {
	var total int64
	for _, c := range p.Components {
		total += c.SizeBytes
	}
	return total
}

// KernelImageBytes returns the kernel+modules size — what Figure 4b
// compares ("for Linux we measured only the kernel and its modules"; for
// Kite the whole unikernel binary is the kernel).
func (p *Profile) KernelImageBytes() int64 {
	var total int64
	for _, c := range p.Components {
		if c.Kind == KindKernel || c.Kind == KindModule ||
			(p.Family == FamilyNetBSD) { // the unikernel image is one binary
			total += c.SizeBytes
		}
	}
	return total
}

// HasSyscall reports whether the profile retains a syscall.
func (p *Profile) HasSyscall(name string) bool {
	for _, s := range p.Syscalls {
		if s == name {
			return true
		}
	}
	return false
}

// HasComponent reports whether the profile ships a component.
func (p *Profile) HasComponent(name string) bool {
	for _, c := range p.Components {
		if c.Name == name {
			return true
		}
	}
	return false
}

// BootTime returns the total boot duration.
func (p *Profile) BootTime() sim.Time {
	var total sim.Time
	for _, ph := range p.BootPhases {
		total += ph.Duration
	}
	return total
}

// Boot schedules the profile's boot sequence on the engine; onPhase (may
// be nil) observes each phase completing, and done fires when the VM is
// ready. Used by the toolstack and the E1 boot-time experiment.
func (p *Profile) Boot(eng *sim.Engine, onPhase func(BootPhase), done func()) {
	at := sim.Time(0)
	for _, ph := range p.BootPhases {
		ph := ph
		at += ph.Duration
		eng.After(at, func() {
			if onPhase != nil {
				onPhase(ph)
			}
		})
	}
	eng.After(at, done)
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// A profile's tables are shared by every profile of its kind — a fleet
// builds one Ubuntu guest profile per tenant — so they are read, never
// written.
var (
	ubuntuComponents = []Component{
		{Name: "vmlinuz-5.0.0-23", Kind: KindKernel, SizeBytes: 8 * mb},
		{Name: "modules-5.0.0-23", Kind: KindModule, SizeBytes: 35 * mb},
		{Name: "glibc", Kind: KindLib, SizeBytes: 12 * mb},
		{Name: "systemd", Kind: KindTool, SizeBytes: 9 * mb},
		{Name: "bash", Kind: KindTool, SizeBytes: 1 * mb},
		{Name: "coreutils", Kind: KindTool, SizeBytes: 7 * mb},
		{Name: "python3", Kind: KindTool, SizeBytes: 48 * mb},
		{Name: "openssl", Kind: KindLib, SizeBytes: 3 * mb},
		{Name: "xen-utils", Kind: KindTool, SizeBytes: 6 * mb},
		{Name: "libxl", Kind: KindLib, SizeBytes: 3 * mb},
		{Name: "udev", Kind: KindTool, SizeBytes: 2 * mb},
		{Name: "hotplug-scripts", Kind: KindScript, SizeBytes: 256 * kb},
	}
	ubuntuBootPhases = []BootPhase{
		{"bios+grub", 3 * sim.Second},
		{"kernel+initramfs", 14 * sim.Second},
		{"udev coldplug", 9 * sim.Second},
		{"mount+fsck", 6 * sim.Second},
		{"systemd units", 22 * sim.Second},
		{"networking.service", 8 * sim.Second},
		{"xen-utils/xl devd", 9 * sim.Second},
		{"getty/login ready", 4 * sim.Second},
	}
	kiteBootPhases = []BootPhase{
		{"hvm boot+image load", 1500 * sim.Millisecond},
		{"rumprun init", 900 * sim.Millisecond},
		{"device driver attach", 2800 * sim.Millisecond},
		{"xenbus+backend ready", 1200 * sim.Millisecond},
		{"configuration app", 600 * sim.Millisecond},
	}
)

// UbuntuDriverDomain is the baseline: Ubuntu 18.04.3, kernel
// 5.0.0-23-generic, with the xen-utils toolstack (§5 setup). Kernel plus
// modules come to ~43 MB — about 10x Kite's image (Fig 4b) — and boot
// takes ~75 s (Fig 4c).
func UbuntuDriverDomain() *Profile {
	return &Profile{
		Name:       "ubuntu-dd",
		Family:     FamilyLinux,
		Components: ubuntuComponents,
		Syscalls:   UbuntuDriverDomainSyscalls,
		BootPhases: ubuntuBootPhases,
		VCPUs:      1,
		MemBytes:   2 << 30,              // 2 GB (§5)
		IRQLatency: 95 * sim.Microsecond, // idle-vCPU wake through Xen + softirq
	}
}

// UbuntuGuest is the DomU application VM (5 GB RAM, 22 vCPUs in §5).
func UbuntuGuest() *Profile {
	p := UbuntuDriverDomain()
	p.Name = "ubuntu-guest"
	p.VCPUs = 22
	p.MemBytes = 5 << 30
	p.IRQLatency = 55 * sim.Microsecond // many vCPUs: one is usually near-runnable
	return p
}

// kiteBase returns the rumprun pieces shared by all Kite domains.
func kiteBase(name string, app Component, drivers Component, syscalls []string) *Profile {
	return &Profile{
		Name:   name,
		Family: FamilyNetBSD,
		Components: []Component{
			{Name: "rumprun-bmk", Kind: KindKernel, SizeBytes: 700 * kb},
			{Name: "rump-kernel-base", Kind: KindKernel, SizeBytes: 900 * kb},
			drivers,
			{Name: "libc-subset", Kind: KindLib, SizeBytes: 600 * kb},
			app,
		},
		Syscalls:   syscalls,
		BootPhases: kiteBootPhases,
		VCPUs:      1,
		MemBytes:   1 << 30,              // 1 GB (§5: rumprun needs less)
		IRQLatency: 30 * sim.Microsecond, // idle wake straight into the BMK handler
	}
}

// KiteNetworkDomain is the unikernelized network driver domain.
func KiteNetworkDomain() *Profile {
	return kiteBase("kite-net",
		Component{Name: "bridge-app+brconfig+ifconfig", Kind: KindApp, SizeBytes: 450 * kb},
		Component{Name: "netbsd-net-drivers+tcpip", Kind: KindModule, SizeBytes: 1600 * kb},
		KiteNetworkSyscalls)
}

// KiteStorageDomain is the unikernelized storage driver domain.
func KiteStorageDomain() *Profile {
	return kiteBase("kite-storage",
		Component{Name: "block-status-app+vbdconf", Kind: KindApp, SizeBytes: 400 * kb},
		Component{Name: "netbsd-nvme-driver+vnode", Kind: KindModule, SizeBytes: 1700 * kb},
		KiteStorageSyscalls)
}

// KiteDHCPDomain is the unikernelized daemon service VM (§5.5: OpenDHCP
// ported with 16 LOC of changes).
func KiteDHCPDomain() *Profile {
	p := kiteBase("kite-dhcp",
		Component{Name: "opendhcp", Kind: KindApp, SizeBytes: 350 * kb},
		Component{Name: "netbsd-net-drivers+tcpip", Kind: KindModule, SizeBytes: 1600 * kb},
		KiteNetworkSyscalls)
	p.Name = "kite-dhcp"
	p.MemBytes = 512 << 20
	return p
}

// Package kite is the public API of the Kite reproduction — a
// deterministic, simulation-backed implementation of "Kite: Lightweight
// Critical Service Domains" (EuroSys 2022).
//
// Kite builds Xen driver domains — the isolated VMs that own a physical
// NIC or NVMe device and export paravirtual I/O to guests — from rumprun
// unikernels instead of full Linux. This package exposes the system
// construction API (testbeds, driver domains, guests, daemon VMs), the OS
// profiles behind the security and footprint analyses, and the workload
// drivers that regenerate every figure and table of the paper's
// evaluation. See DESIGN.md for the substitution strategy and
// EXPERIMENTS.md for paper-versus-measured results.
//
// Quick start:
//
//	tb := kite.NewTestbed(1)
//	nd, _ := tb.System.CreateNetworkDomain(kite.NetworkDomainConfig{
//		Kind: kite.KindKite, NIC: tb.ServerNIC,
//	})
//	guest, _ := tb.System.CreateGuest(kite.GuestConfig{
//		Name: "domU", IP: tb.GuestIP, Net: nd,
//	})
//	tb.System.RunReady(guest.Ready, 500000)
//	tb.Client.Stack.Ping(tb.GuestIP, 56, func(rtt sim.Time) { ... })
package kite

import (
	"kite/internal/core"
	"kite/internal/guestos"
	"kite/internal/security"
	"kite/internal/sim"
)

// Re-exported system construction types (see internal/core).
type (
	// System is one simulated Xen machine with Dom0.
	System = core.System
	// Testbed is the paper's two-machine hardware setup (Table 2).
	Testbed = core.Testbed
	// NetworkRig is a ready network-domain experiment setup (§5.3).
	NetworkRig = core.NetworkRig
	// StorageRig is a ready storage-domain experiment setup (§5.4).
	StorageRig = core.StorageRig
	// StorageRigConfig tunes a StorageRig.
	StorageRigConfig = core.StorageRigConfig
	// TuningKnobs toggles blkback's design choices (ablations).
	TuningKnobs = core.TuningKnobs
	// DriverKind selects Kite or the Linux baseline.
	DriverKind = core.DriverKind
	// NetworkDomainConfig describes a network driver domain.
	NetworkDomainConfig = core.NetworkDomainConfig
	// NetworkDomain is a running network driver domain.
	NetworkDomain = core.NetworkDomain
	// StorageDomainConfig describes a storage driver domain.
	StorageDomainConfig = core.StorageDomainConfig
	// StorageDomain is a running storage driver domain.
	StorageDomain = core.StorageDomain
	// GuestConfig describes a DomU application VM.
	GuestConfig = core.GuestConfig
	// Guest is a DomU with its PV frontends.
	Guest = core.Guest
	// DaemonVM is a unikernelized service VM (§5.5).
	DaemonVM = core.DaemonVM
)

// Driver domain kinds.
const (
	KindKite  = core.KindKite
	KindLinux = core.KindLinux
)

// NewSystem boots a hypervisor with Dom0.
func NewSystem(seed uint64) *System { return core.NewSystem(seed) }

// NewTestbed assembles the Table 2 hardware.
func NewTestbed(seed uint64) *Testbed { return core.NewTestbed(seed) }

// NewNetworkRig builds the standard network experiment setup.
func NewNetworkRig(kind DriverKind, seed uint64) (*NetworkRig, error) {
	return core.NewNetworkRig(kind, seed)
}

// NewStorageRig builds the standard storage experiment setup.
func NewStorageRig(cfg StorageRigConfig) (*StorageRig, error) {
	return core.NewStorageRig(cfg)
}

// Re-exported OS profile types (see internal/guestos).
type (
	// Profile describes one VM kind's OS inventory.
	Profile = guestos.Profile
	// BootPhase is one step of a boot sequence.
	BootPhase = guestos.BootPhase
)

// OS profile constructors.
var (
	// UbuntuDriverDomain is the Linux baseline driver domain.
	UbuntuDriverDomain = guestos.UbuntuDriverDomain
	// UbuntuGuest is the DomU application VM profile.
	UbuntuGuest = guestos.UbuntuGuest
	// KiteNetworkDomain is the unikernel network domain profile.
	KiteNetworkDomain = guestos.KiteNetworkDomain
	// KiteStorageDomain is the unikernel storage domain profile.
	KiteStorageDomain = guestos.KiteStorageDomain
	// KiteDHCPDomain is the unikernel daemon VM profile.
	KiteDHCPDomain = guestos.KiteDHCPDomain
)

// Re-exported security analysis (see internal/security).
type (
	// CVE is one vulnerability record.
	CVE = security.CVE
)

// Security analysis functions.
var (
	// Table3CVEs returns the paper's Table 3 records.
	Table3CVEs = security.Table3CVEs
	// CVEApplies reports whether a CVE is exploitable on a profile.
	CVEApplies = security.Applies
	// GadgetTable is the per-category ROP gadget counts of Figs 1b/5, one
	// row per kernel configuration (typed inputs, not a measurement).
	GadgetTable = security.GadgetTable
)

// Time aliases the simulation clock type.
type Time = sim.Time

// Time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

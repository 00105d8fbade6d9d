// Package xen models the Xen hypervisor layer of the Kite reproduction:
// domains with virtual CPUs and RAM arenas, inter-domain event channels
// (virtual interrupts), and grant tables for shared memory including the
// hypervisor-based copy path that modern netfronts use (§4.2 of the paper).
//
// Mechanisms are executed for real — grant copies move actual bytes between
// per-domain page arenas — while every hypercall charges virtual time to
// the calling vCPU so that the cost of map/unmap/copy traffic shows up in
// the experiments exactly where the paper says it matters.
package xen

import (
	"fmt"

	"kite/internal/mem"
	"kite/internal/sim"
)

// DomID identifies a domain. Dom0 is always DomID 0.
type DomID uint16

// HypercallCosts parameterizes the price of crossing into the hypervisor.
// Defaults approximate the paper's testbed (Xeon E5-2695 v4, Xen 4.9).
type HypercallCosts struct {
	Base           sim.Time // trap + entry/exit
	EventSend      sim.Time // evtchn_send beyond Base
	GrantMapPage   sim.Time // per page mapped
	GrantUnmapPage sim.Time // per page unmapped (incl. TLB shootdown share)
	GrantCopyPage  sim.Time // per copy op fixed part
	CopyBytePerKB  sim.Time // memcpy cost per KiB moved by the hypervisor
}

// DefaultCosts returns the calibrated cost set used by the experiments.
func DefaultCosts() HypercallCosts {
	return HypercallCosts{
		Base:           550 * sim.Nanosecond,
		EventSend:      250 * sim.Nanosecond,
		GrantMapPage:   480 * sim.Nanosecond,
		GrantUnmapPage: 620 * sim.Nanosecond, // unmap is pricier: remote TLB flush
		GrantCopyPage:  180 * sim.Nanosecond,
		CopyBytePerKB:  55 * sim.Nanosecond, // ~18 GB/s effective memcpy
	}
}

// Stats counts hypercall traffic; experiments and ablation benches read it.
type Stats struct {
	EventSends   uint64
	GrantMaps    uint64
	GrantUnmaps  uint64
	GrantCopies  uint64 // copy ops, not batches
	CopiedBytes  uint64
	HypercallNS  sim.Time
	DomainsBuilt uint64
}

// Hypervisor is the single trusted component (paper §3.1). It owns the
// domain table and implements the hypercall surface the drivers use.
type Hypervisor struct {
	Eng   *sim.Engine
	Costs HypercallCosts

	// domains is indexed by DomID: IDs are allocated sequentially and never
	// reused, so the hot per-packet lookups (grant copies, event sends) are
	// a bounds check instead of a map probe.
	domains []*Domain
	nextDom DomID
	stats   Stats

	pci map[string]DomID // BDF -> owning domain
}

// New creates a hypervisor on the given engine with default costs.
func New(eng *sim.Engine) *Hypervisor {
	return &Hypervisor{
		Eng:   eng,
		Costs: DefaultCosts(),
		pci:   make(map[string]DomID),
	}
}

// Stats returns a snapshot of hypercall counters. They only grow: a phase
// reads its own counts as the difference of two snapshots.
func (hv *Hypervisor) Stats() Stats { return hv.stats }

// DomainConfig describes a domain to be built.
type DomainConfig struct {
	Name       string
	VCPUs      int
	MemBytes   int64
	Privileged bool
	IRQLatency sim.Time // event-channel upcall delivery latency for this OS
}

// CreateDomain builds a new domain. The first domain created is Dom0 and
// must be privileged.
func (hv *Hypervisor) CreateDomain(cfg DomainConfig) *Domain {
	if cfg.VCPUs <= 0 {
		panic(fmt.Sprintf("xen: domain %q needs at least one vCPU", cfg.Name))
	}
	id := hv.nextDom
	hv.nextDom++
	if id == 0 && !cfg.Privileged {
		panic("xen: the first domain must be privileged Dom0")
	}
	d := &Domain{
		ID:         id,
		Name:       cfg.Name,
		hv:         hv,
		CPUs:       sim.NewCPUPool(hv.Eng, cfg.Name, cfg.VCPUs),
		Arena:      *mem.NewArena(cfg.Name, cfg.MemBytes),
		Privileged: cfg.Privileged,
		IRQLatency: cfg.IRQLatency,
	}
	hv.domains = append(hv.domains, d)
	hv.stats.DomainsBuilt++
	return d
}

// domainAt returns the domain slot for an ID, dead or alive; nil if the ID
// was never allocated.
//
//kite:hotpath
func (hv *Hypervisor) domainAt(id DomID) *Domain {
	if int(id) >= len(hv.domains) {
		return nil
	}
	return hv.domains[id]
}

// Domain looks up a live domain by ID; nil if unknown or destroyed.
//
//kite:hotpath
func (hv *Hypervisor) Domain(id DomID) *Domain {
	d := hv.domainAt(id)
	if d == nil || d.dead {
		return nil
	}
	return d
}

// Domains returns all live domains in creation order.
func (hv *Hypervisor) Domains() []*Domain {
	out := make([]*Domain, 0, len(hv.domains))
	for _, d := range hv.domains {
		if !d.dead {
			out = append(out, d)
		}
	}
	return out
}

// DestroyDomain tears a domain down: all its event channels close (peers
// see the close), grants are revoked and their loans end, its memory goes
// back (the arena drops its pages; a backend's live mapping keeps the one
// page it holds, and a page lent at the time comes back zeroed), the
// mappings it held of other domains' grants are released
// (gnttab_release_mappings), so their owners can end those grants, and the
// domain stops receiving events. Other domains are untouched — the
// isolation property driver domains exist to provide.
func (hv *Hypervisor) DestroyDomain(id DomID) error {
	d := hv.domainAt(id)
	if d == nil || d.dead {
		return fmt.Errorf("xen: destroy of unknown domain %d", id)
	}
	if id == 0 {
		return fmt.Errorf("xen: refusing to destroy Dom0")
	}
	d.dead = true
	for p := range d.ports {
		if d.ports[p] != nil {
			d.closePort(Port(p))
		}
	}
	for i := range d.grants {
		if g := &d.grants[i]; g.flags&grantLive != 0 {
			d.Arena.At(g.slab, g.off).Restore(nil) // its own backing is with the lender, which died here
		}
	}
	d.grants, d.freeRef = nil, 0
	d.liveGrants = 0
	d.Arena.Release()
	if d.liveMaps > 0 {
		for _, od := range hv.domains {
			for i := range od.grants {
				if g := &od.grants[i]; g.flags&grantLive != 0 && g.remote == id {
					g.flags &= grantMapOne - 1
				}
			}
		}
	}
	for bdf, owner := range hv.pci { //kite:orderok deletes every entry of the dead domain
		if owner == id {
			delete(hv.pci, bdf)
		}
	}
	if d.OnDestroy != nil {
		d.OnDestroy()
	}
	return nil
}

// AssignPCI gives a passthrough device (identified by BDF) to a domain,
// modelling `xl pci-assignable-add` + the pci= config stanza.
func (hv *Hypervisor) AssignPCI(bdf string, id DomID) error {
	if hv.Domain(id) == nil {
		return fmt.Errorf("xen: pci assign to unknown domain %d", id)
	}
	if owner, taken := hv.pci[bdf]; taken {
		return fmt.Errorf("xen: device %s already assigned to domain %d", bdf, owner)
	}
	hv.pci[bdf] = id
	return nil
}

// PCIOwner returns the domain owning a BDF, or false.
func (hv *Hypervisor) PCIOwner(bdf string) (DomID, bool) {
	id, ok := hv.pci[bdf]
	return id, ok
}

// Domain is one virtual machine.
type Domain struct {
	ID         DomID
	Privileged bool
	dead       bool
	freeRef    GrantRef
	// grants and ports are indexed by ref/port number, so the per-packet
	// resolutions (resolveCopyPtr, Notify) are bounds checks instead of map
	// probes. Grant entries are stored by value; a revoked one is a dead
	// slot on the free list headed by freeRef, which the next GrantAccess
	// reuses. Ports are allocated sequentially and never reused; closed
	// ones leave nil holes.
	grants []grantEntry
	// Arena is the domain's memory. It is held by value right after
	// grants, and mem.Arena keeps its slab table as its first field, so a
	// grant copy finds dead, the grant table and the slab table in the
	// first 56 bytes and reaches the granted page with one load more than
	// a pointer entry took. The small fields lead so that the domain fits
	// the 208 B size class.
	Arena      mem.Arena
	Name       string
	CPUs       *sim.CPUPool
	liveGrants int
	ports      []*channel
	nextPort   Port
	// liveMaps counts the domain's live mappings of other domains' grants,
	// so a destroy that held none skips the walk of every grant table.
	liveMaps uint32
	// IRQLatency is fixed at creation: each event channel copies it.
	IRQLatency sim.Time

	// OnDestroy runs when the hypervisor destroys the domain (used by the
	// toolstack to clean up xenstore state, as xenstored does for real).
	OnDestroy func()

	hv *Hypervisor
}

// grant returns the live grant entry for ref, nil if ref was never issued
// or has been revoked. The pointer is into the table: it does not survive
// the next GrantAccess.
//
//kite:hotpath
func (d *Domain) grant(ref GrantRef) *grantEntry {
	if int(ref) >= len(d.grants) || d.grants[ref].flags&grantLive == 0 {
		return nil
	}
	return &d.grants[ref]
}

// port returns the channel on a local port, nil if unknown or closed.
//
//kite:hotpath
func (d *Domain) port(p Port) *channel {
	if int(p) >= len(d.ports) {
		return nil
	}
	return d.ports[p]
}

// setPort installs a channel at p, growing the port table as needed
// (ports are allocated sequentially, so growth is one slot at a time).
func (d *Domain) setPort(p Port, ch *channel) {
	for int(p) >= len(d.ports) {
		d.ports = append(d.ports, nil) //kite:alloc-ok port table grows once per channel lifetime
	}
	d.ports[p] = ch
}

// Hypervisor returns the owning hypervisor.
func (d *Domain) Hypervisor() *Hypervisor { return d.hv }

// charge bills a hypercall of the given cost to one of the domain's vCPUs
// and returns completion time.
func (d *Domain) charge(cost sim.Time) sim.Time {
	d.hv.stats.HypercallNS += cost
	return d.CPUs.Charge(cost)
}

// chargeOn bills a hypercall to a specific (pinned) vCPU — the form every
// per-queue data path uses once queues are pinned to cluster shards. The
// cluster runs in exact global order, so a pick from the shared pool would
// read every vCPU's busy-until mark where the timeline has it; the pinned
// charge stays because switching to the pool pick would move the model.
func (d *Domain) chargeOn(cpu *sim.CPU, cost sim.Time) sim.Time {
	d.hv.stats.HypercallNS += cost
	return cpu.Charge(cost)
}

// Package core is the Kite system: the orchestration layer that builds
// unikernelized service domains (the paper's contribution) and their
// Linux-based baseline equivalents on top of the simulated Xen substrate.
//
// It plays two roles the paper describes:
//
//   - the minimal toolstack functionality a driver domain needs (device
//     entries in xenstore, PCI passthrough assignment, vbd windows) —
//     replacing xl/libxl's heavyweight path (§1, §3.1), and
//   - the in-domain configuration applications: the network application
//     that creates the bridge, brings up the physical IF and attaches new
//     VIFs (§4.3, ifconfig/brconfig), and the block status application
//     that oversees vbd instances (§4.4).
//
// A System owns one simulation; CreateNetworkDomain / CreateStorageDomain
// / CreateGuest / CreateDaemonVM assemble the paper's testbed piece by
// piece.
package core

import (
	"errors"
	"fmt"

	"kite/internal/apps"

	"kite/internal/blkback"
	"kite/internal/blkfront"
	"kite/internal/blkif"
	"kite/internal/blkpool"
	"kite/internal/bridge"
	"kite/internal/bufpool"
	"kite/internal/framepool"
	"kite/internal/fsim"
	"kite/internal/guestos"
	"kite/internal/nat"
	"kite/internal/netback"
	"kite/internal/netfront"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/nic"
	"kite/internal/nvme"
	"kite/internal/pvback"
	"kite/internal/pvfront"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// errNotReady reports a rig whose handshakes did not complete.
var errNotReady = errors.New("core: devices did not reach Connected")

// DriverKind selects the driver-domain implementation.
type DriverKind int

// Driver domain kinds.
const (
	KindKite DriverKind = iota
	KindLinux
)

func (k DriverKind) String() string {
	if k == KindKite {
		return "kite"
	}
	return "linux"
}

// System is one simulated machine running Xen with Dom0 and the service
// domains Kite manages.
type System struct {
	Eng    *sim.Engine
	HV     *xen.Hypervisor
	Store  *xenstore.Store
	Bus    *xenbus.Bus
	NetReg *pvback.Registry
	BlkReg *pvback.Registry
	Dom0   *xen.Domain

	// Pool is the system-wide frame buffer pool every network component
	// draws from; Pool.Outstanding() == 0 at quiesce proves no component
	// leaked a frame reference.
	Pool *framepool.Pool

	// BlkPool is its storage sibling: the sector-buffer pool every
	// blkfront draws read completions from. BlkPool.Outstanding() == 0 at
	// quiesce proves no storage component leaked a buffer.
	BlkPool *blkpool.Pool

	// Cluster is non-nil when the event core is sharded across per-queue
	// engines (NewShardedSystem); Eng is then the cluster's shard 0, where
	// everything that is not a pinned PV queue lives.
	Cluster *sim.Cluster

	queueShards []*sim.Engine // shards 1.. of Cluster; nil when unsharded
	seed        uint64
	nextVbdBase int64
}

// ShardLookahead is the cluster lookahead of sharded systems: every
// cross-shard hand-off in the PV data paths (qdisc dispatch, softirq
// delivery, bridge input) models at least this much latency, and Post
// refuses a shorter one.
const ShardLookahead = 2 * sim.Microsecond

// NewSystem boots the hypervisor and Dom0 (which hosts xenstored; per §5,
// Dom0 has no storage or network drivers).
func NewSystem(seed uint64) *System { return newSystem(seed, nil) }

// NewShardedSystem boots a system whose discrete-event core is split into
// 1+queues cluster shards: shard 0 carries the hypervisor, Dom0, bridges,
// stacks and devices; shard 1+i is reserved for queue i of the PV
// transports. The cluster runs on the caller's goroutine, like the single
// engine of NewSystem.
func NewShardedSystem(seed uint64, queues int) *System {
	return newSystem(seed, sim.NewCluster(1+queues, ShardLookahead, seed))
}

func newSystem(seed uint64, cluster *sim.Cluster) *System {
	var eng *sim.Engine
	var queueShards []*sim.Engine
	if cluster != nil {
		eng = cluster.Shard(0)
		queueShards = make([]*sim.Engine, cluster.Shards()-1)
		for i := range queueShards {
			queueShards[i] = cluster.Shard(1 + i)
		}
	} else {
		eng = sim.NewEngine()
	}
	hv := xen.New(eng)
	dom0 := hv.CreateDomain(xen.DomainConfig{
		Name: "dom0", VCPUs: 2, MemBytes: 8 << 30, Privileged: true,
		IRQLatency: 6 * sim.Microsecond,
	})
	store := xenstore.New(eng)
	return &System{
		Eng: eng, HV: hv, Store: store, Bus: xenbus.New(store),
		NetReg: pvback.NewRegistry(), BlkReg: pvback.NewRegistry(),
		Dom0: dom0, Pool: framepool.New(), BlkPool: blkpool.New(),
		Cluster: cluster, queueShards: queueShards, seed: seed, nextVbdBase: 2048,
	}
}

// QueueShards returns the engines reserved for PV queue pinning (shard 1
// onward), or nil for an unsharded system. The slice is the system's own:
// callers must not modify it.
func (s *System) QueueShards() []*sim.Engine { return s.queueShards }

// RunReady drives the simulation until ready() holds (or the event cap
// trips, returning false). It is the "wait for handshakes" helper.
func (s *System) RunReady(ready func() bool, maxEvents uint64) bool {
	start := s.Eng.Processed()
	for !ready() {
		if !s.Eng.Step() {
			return ready()
		}
		if s.Eng.Processed()-start > maxEvents {
			return false
		}
	}
	return true
}

// NetworkDomainConfig describes a network driver domain to build.
type NetworkDomainConfig struct {
	Kind DriverKind
	NIC  *nic.NIC
	// Boot runs the OS boot sequence before the domain serves (E1 measures
	// it); when false the domain is ready immediately.
	Boot bool
	// NAT switches the network application from bridging to network
	// address translation (§3.1's alternative organization): guests sit on
	// a private segment and share GatewayIP on the physical side.
	NAT       bool
	GatewayIP netpkt.IP
	// VCPUs overrides the profile's vCPU count (§5 uses 1; the design
	// supports more for I/O scaling).
	VCPUs int
	// Fleet switches the netback driver into fleet mode on a sharded
	// system: shared DRR service lanes (one per queue shard) serve many
	// single-queue tenants instead of per-VIF dedicated workers. The
	// domain needs 2*lanes+1 vCPUs (lane workers, bridge forwarding,
	// invoker); VCPUs defaults to that when unset.
	Fleet bool
}

// NetworkDomain is a running network driver domain: the physical NIC, the
// bridge (or NAT router), and the netback driver, all inside one
// unprivileged VM.
type NetworkDomain struct {
	Dom     *xen.Domain
	Profile *guestos.Profile
	Kind    DriverKind
	Bridge  *bridge.Bridge
	Driver  *netback.Driver
	NIC     *nic.NIC

	// NATRouter is non-nil in NAT mode.
	router *natRouter

	ready   bool
	bootLog []string
}

// NAT returns the translator when the domain runs in NAT mode (nil in
// bridge mode); use it to install port forwards.
func (nd *NetworkDomain) NAT() *nat.Translator {
	if nd.router == nil {
		return nil
	}
	return nd.router.Translator()
}

// Ready reports whether the domain finished booting and configuring.
func (nd *NetworkDomain) Ready() bool { return nd.ready }

// AttachNIC adds a second physical NIC to the domain's bridge (§3.1: one
// Kite domain can serve several NICs for I/O scaling, since it supports
// multiple cores). Only meaningful in bridge mode.
func (nd *NetworkDomain) AttachNIC(s *System, dev *nic.NIC, name string) error {
	if nd.router != nil {
		return fmt.Errorf("core: AttachNIC unsupported in NAT mode")
	}
	if err := s.HV.AssignPCI(dev.BDF(), nd.Dom.ID); err != nil {
		return err
	}
	nd.Bridge.AttachDevice(name, dev)
	return nil
}

// BootLog returns the boot phases observed (E1 diagnostics).
func (nd *NetworkDomain) BootLog() []string { return nd.bootLog }

// CreateNetworkDomain builds a network driver domain of the given kind
// and assigns it the physical NIC via PCI passthrough.
func (s *System) CreateNetworkDomain(cfg NetworkDomainConfig) (*NetworkDomain, error) {
	var profile *guestos.Profile
	var costs netback.Costs
	var brCost sim.Time
	if cfg.Kind == KindKite {
		profile = guestos.KiteNetworkDomain()
		costs = netback.KiteCosts()
		brCost = 250 * sim.Nanosecond
	} else {
		profile = guestos.UbuntuDriverDomain()
		costs = netback.LinuxCosts()
		brCost = 320 * sim.Nanosecond // netfilter hooks on the bridge path
	}
	vcpus := profile.VCPUs
	if cfg.VCPUs > 0 {
		vcpus = cfg.VCPUs
	} else if cfg.Fleet {
		if qs := s.QueueShards(); qs != nil {
			vcpus = 2*len(qs) + 1
		}
	}
	dom := s.HV.CreateDomain(xen.DomainConfig{
		Name: fmt.Sprintf("netdd-%s", cfg.Kind), VCPUs: vcpus,
		MemBytes: profile.MemBytes, IRQLatency: profile.IRQLatency,
	})
	if err := s.HV.AssignPCI(cfg.NIC.BDF(), dom.ID); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	nd := &NetworkDomain{Dom: dom, Profile: profile, Kind: cfg.Kind, NIC: cfg.NIC}

	start := func() {
		// The network application (§4.3): create the bridge (or the NAT
		// router), attach the physical IF, then serve frontends. In a
		// sharded system vCPUs 0..Q-1 are pinned one-per-queue by the
		// netback driver; the bridge path runs on the remaining width.
		brCPUs := dom.CPUs
		if qs := s.QueueShards(); qs != nil && dom.CPUs.Len() > len(qs) {
			brCPUs = dom.CPUs.Slice(len(qs), dom.CPUs.Len())
		}
		nd.Bridge = bridge.New(s.Eng, brCPUs, "xenbr0")
		nd.Bridge.PerFrameCost = brCost
		if cfg.NAT {
			nd.router = newNATRouter(s.Eng, dom, nd.Bridge, cfg.NIC,
				cfg.NIC.MAC(), cfg.GatewayIP, brCost, s.Pool)
		} else {
			nd.Bridge.AttachDevice("if0", cfg.NIC)
		}
		nd.Driver = netback.NewDriver(s.Eng, dom, s.Bus, s.NetReg, nd.Bridge, costs, s.Pool)
		if qs := s.QueueShards(); qs != nil {
			if cfg.Fleet {
				nd.Driver.SetFleet(qs)
			} else {
				nd.Driver.SetShards(qs)
			}
		}
		nd.ready = true
	}
	if cfg.Boot {
		profile.Boot(s.Eng, func(ph guestos.BootPhase) {
			nd.bootLog = append(nd.bootLog, ph.Name)
		}, start)
	} else {
		start()
	}
	return nd, nil
}

// StorageDomainConfig describes a storage driver domain.
type StorageDomainConfig struct {
	Kind   DriverKind
	Device *nvme.Device
	Boot   bool
	// Tuning overrides the kind's blkback design choices for ablation
	// benches; nil keeps the kind's defaults.
	Tuning *TuningKnobs
	// VCPUs overrides the profile's vCPU count; blkback advertises one
	// hardware queue per vCPU, so multi-queue vbds need VCPUs > 1.
	VCPUs int
	// FleetLanes switches the blkback driver into fleet mode with this
	// many shared DRR request lanes serving single-queue tenants; VCPUs
	// defaults to FleetLanes+1 (lane workers + invoker).
	FleetLanes int
}

// StorageDomain is a running storage driver domain.
type StorageDomain struct {
	Dom     *xen.Domain
	Profile *guestos.Profile
	Kind    DriverKind
	Driver  *blkback.Driver
	Device  *nvme.Device

	ready bool
}

// Ready reports whether the domain is serving.
func (sd *StorageDomain) Ready() bool { return sd.ready }

// CreateStorageDomain builds a storage driver domain owning the NVMe
// device.
func (s *System) CreateStorageDomain(cfg StorageDomainConfig) (*StorageDomain, error) {
	var profile *guestos.Profile
	var costs blkback.Costs
	if cfg.Kind == KindKite {
		profile = guestos.KiteStorageDomain()
		costs = blkback.KiteCosts()
	} else {
		profile = guestos.UbuntuDriverDomain()
		costs = blkback.LinuxCosts()
	}
	if t := cfg.Tuning; t != nil {
		costs.Persistent, costs.Indirect, costs.Batch = t.Persistent, t.Indirect, t.Batch
	}
	vcpus := profile.VCPUs
	if cfg.VCPUs > 0 {
		vcpus = cfg.VCPUs
	} else if cfg.FleetLanes > 0 {
		vcpus = cfg.FleetLanes + 1
	}
	dom := s.HV.CreateDomain(xen.DomainConfig{
		Name: fmt.Sprintf("blkdd-%s", cfg.Kind), VCPUs: vcpus,
		MemBytes: profile.MemBytes, IRQLatency: profile.IRQLatency,
	})
	if err := s.HV.AssignPCI(cfg.Device.BDF(), dom.ID); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sd := &StorageDomain{Dom: dom, Profile: profile, Kind: cfg.Kind, Device: cfg.Device}
	start := func() {
		// The block status application (§4.4) is the driver's OnInstance
		// observer; the driver itself holds the watch thread.
		sd.Driver = blkback.NewDriver(s.Eng, dom, s.Bus, s.BlkReg, cfg.Device, costs)
		if cfg.FleetLanes > 0 {
			sd.Driver.SetFleet(cfg.FleetLanes)
		}
		sd.ready = true
	}
	if cfg.Boot {
		profile.Boot(s.Eng, nil, start)
	} else {
		start()
	}
	return sd, nil
}

// GuestConfig describes a DomU application VM.
type GuestConfig struct {
	Name string
	IP   netpkt.IP
	// Net attaches a vif served by the given network domain.
	Net *NetworkDomain
	// Storage attaches a vbd window of DiskBytes on the given storage
	// domain.
	Storage   *StorageDomain
	DiskBytes int64
	// CacheBytes sizes the guest page cache (default 64 MiB; §5.4 keeps it
	// below the dataset).
	CacheBytes int64
	// Profile overrides the default Ubuntu guest profile.
	Profile *guestos.Profile
	Seed    uint64
	// NetQueues / BlkQueues request multi-queue PV transports; the
	// handshakes negotiate down to what the backend advertises (one queue
	// per driver-domain vCPU). 0 means single-queue.
	NetQueues int
	BlkQueues int
	// Fleet marks the guest as one tenant of a fleet-mode network domain
	// (NetworkDomainConfig.Fleet): its single-queue vif is pinned to the
	// cluster shard of service lane FleetLane, and the lane hint is
	// published in the device's backend directory so the driver's
	// assignment matches the pinning.
	Fleet     bool
	FleetLane int
}

// Guest is a DomU with its stack, frontends, and (optionally) a mounted
// filesystem.
type Guest struct {
	Dom     *xen.Domain
	Profile *guestos.Profile
	Stack   *netstack.Stack
	Net     *netfront.Device
	Disk    *blkfront.Device
	Pool    *bufpool.Pool
	FS      *fsim.FS

	// fleetLane (-1: none) and vbdParams are what the toolstack's entries
	// for the vif and the vbd carry besides the two domains; Reattach
	// re-adds the devices with them.
	fleetLane int
	vbdParams string
}

// vifSpec is the toolstack's entry for the guest's vif on domain back.
func (g *Guest) vifSpec(back xen.DomID) xenbus.DeviceSpec {
	backExtra := map[string]string{xenstore.KeyBridge: "xenbr0"}
	if g.fleetLane >= 0 {
		backExtra[xenstore.KeyTenantLane] = fmt.Sprintf("%d", g.fleetLane)
	}
	return xenbus.DeviceSpec{
		Type: xenstore.DevVif, FrontDom: xenbus.DomID(g.Dom.ID), BackDom: xenbus.DomID(back),
		FrontExtra: map[string]string{xenstore.KeyMac: netpkt.XenMAC(uint16(g.Dom.ID), 0).String()},
		BackExtra:  backExtra,
	}
}

// vbdSpec is the toolstack's entry for the guest's vbd on domain back.
func (g *Guest) vbdSpec(back xen.DomID) xenbus.DeviceSpec {
	return xenbus.DeviceSpec{
		Type: xenstore.DevVbd, FrontDom: xenbus.DomID(g.Dom.ID), BackDom: xenbus.DomID(back),
		DevID: vbdDevID, BackExtra: map[string]string{"params": g.vbdParams},
	}
}

// vbdDevID is xvda's device id.
const vbdDevID = 51712

// Ready reports whether all attached frontends are connected.
func (g *Guest) Ready() bool {
	if g.Net != nil && !g.Net.Ready() {
		return false
	}
	if g.Disk != nil && !g.Disk.Ready() {
		return false
	}
	return true
}

// CreateGuest builds a DomU and attaches the requested PV devices. The
// caller drives the engine (RunReady) until Guest.Ready.
func (s *System) CreateGuest(cfg GuestConfig) (*Guest, error) {
	profile := cfg.Profile
	if profile == nil {
		profile = guestos.UbuntuGuest()
	}
	vcpus := profile.VCPUs
	if s.Cluster != nil && cfg.NetQueues > 1 {
		// Sharded: vCPUs 0..Q-1 are pinned one-per-queue; the stack keeps
		// the profile's own width on the rest.
		vcpus = profile.VCPUs + cfg.NetQueues
	} else if s.Cluster != nil && cfg.Fleet {
		vcpus = profile.VCPUs + 1 // vCPU 0 pinned to the lane's shard
	}
	dom := s.HV.CreateDomain(xen.DomainConfig{
		Name: cfg.Name, VCPUs: vcpus,
		MemBytes: profile.MemBytes, IRQLatency: profile.IRQLatency,
	})
	g := &Guest{Dom: dom, Profile: profile, fleetLane: -1}
	if cfg.Fleet {
		g.fleetLane = cfg.FleetLane
	}

	if cfg.Net != nil {
		s.Bus.AddDevice(g.vifSpec(cfg.Net.Dom.ID))
		var netShards []*sim.Engine
		stackCPUs := dom.CPUs
		if qs := s.QueueShards(); qs != nil && cfg.NetQueues > 1 {
			netShards = qs
			// vCPUs 0..Q-1 are pinned per queue; the stack gets the rest.
			stackCPUs = dom.CPUs.Slice(cfg.NetQueues, dom.CPUs.Len())
		} else if qs != nil && cfg.Fleet {
			// Fleet tenant: the single queue lives on its service lane's
			// shard so ring events never cross shards.
			netShards = []*sim.Engine{qs[cfg.FleetLane%len(qs)]}
			stackCPUs = dom.CPUs.Slice(1, dom.CPUs.Len())
		}
		g.Net = netfront.New(s.Eng, netfront.Config{Config: pvfront.Config{Dom: dom, Bus: s.Bus,
			Registry: s.NetReg, BackDom: cfg.Net.Dom.ID, Queues: cfg.NetQueues},
			MAC: netpkt.XenMAC(uint16(dom.ID), 0), Pool: s.Pool, HashSeed: cfg.Seed ^ s.seed, Shards: netShards})
		stackCosts := netstack.LinuxGuestCosts()
		if profile.Family == guestos.FamilyNetBSD {
			stackCosts = netstack.RumprunCosts()
		}
		g.Stack = netstack.New(s.Eng, netstack.Config{
			Name: cfg.Name, CPUs: stackCPUs, Iface: g.Net,
			IP: cfg.IP, Costs: stackCosts, Seed: cfg.Seed ^ s.seed,
			Pool: s.Pool,
		})
	}

	if cfg.Storage != nil {
		if cfg.DiskBytes <= 0 {
			return nil, fmt.Errorf("core: guest %s: storage without DiskBytes", cfg.Name)
		}
		sectors := cfg.DiskBytes / blkif.SectorSize
		base := s.nextVbdBase
		if (base+sectors)*blkif.SectorSize > cfg.Storage.Device.CapacitySectors()*blkif.SectorSize {
			return nil, fmt.Errorf("core: nvme device exhausted")
		}
		s.nextVbdBase = base + sectors
		g.vbdParams = fmt.Sprintf("%d:%d", base, sectors)
		s.Bus.AddDevice(g.vbdSpec(cfg.Storage.Dom.ID))
		cache := cfg.CacheBytes
		if cache == 0 {
			cache = 64 << 20
		}
		// The vbd, cache and filesystem run on shard 0; skip guest vCPUs
		// that a sharded vif pinned to queue shards, and bind the vbd's
		// event channels inside what is left.
		blkCPUs := dom.CPUs
		var vbdCPUs *sim.CPUPool
		if s.Cluster != nil && cfg.Net != nil && (cfg.NetQueues > 1 || cfg.Fleet) {
			pinned := 1
			if cfg.NetQueues > 1 {
				pinned = cfg.NetQueues
			}
			blkCPUs = dom.CPUs.Slice(pinned, dom.CPUs.Len())
			vbdCPUs = blkCPUs
		}
		// The filesystem mounts once the first vbd handshake reports the
		// disk size (blkfront learns its sector count from the backend); a
		// reattached vbd keeps its cache and filesystem.
		g.Disk = blkfront.New(s.Eng, blkfront.Config{Pool: s.BlkPool, CPUs: vbdCPUs, Config: pvfront.Config{
			Dom: dom, Bus: s.Bus, Registry: s.BlkReg, DevID: vbdDevID,
			BackDom: cfg.Storage.Dom.ID, Queues: cfg.BlkQueues,
			OnReady: func() {
				if g.FS != nil {
					return
				}
				g.Pool = bufpool.New(s.Eng, g.Disk, bufpool.Config{
					CapacityBytes: cache,
					CPUs:          blkCPUs,
					HitCost:       400 * sim.Nanosecond,
					PerKBCost:     45 * sim.Nanosecond,
				})
				g.FS = fsim.New(s.Eng, g.Pool, blkCPUs, fsim.DefaultCosts())
			},
		}})
	}
	return g, nil
}

// CloseNet detaches the guest's vif (frontend-initiated close).
func (g *Guest) CloseNet(s *System) {
	if g.Net != nil {
		g.Net.Close()
	}
}

// DriverDomain is a network or storage driver domain: what Guest.Reattach
// replugs a device onto.
type DriverDomain interface {
	// backend returns the domain and the device type it serves.
	backend() (*xen.Domain, string)
}

func (nd *NetworkDomain) backend() (*xen.Domain, string) { return nd.Dom, xenstore.DevVif }
func (sd *StorageDomain) backend() (*xen.Domain, string) { return sd.Dom, xenstore.DevVbd }

// Reattach replugs the guest's device of dd's class onto dd, whose old
// backend is closed or dead — the recovery path after a driver domain
// crash + restart that §5.2 motivates fast boots with. The toolstack
// re-adds the device and the same frontend re-runs its handshake in place:
// a vif keeps its MAC, queues, shards and stack; a vbd keeps its params
// window, cache and filesystem, and resubmits what the old backend left
// unanswered.
func (g *Guest) Reattach(s *System, dd DriverDomain) error {
	back, typ := dd.backend()
	switch {
	case typ == xenstore.DevVif && g.Net != nil:
		s.Bus.AddDevice(g.vifSpec(back.ID))
		g.Net.Reattach(back.ID)
	case typ == xenstore.DevVbd && g.Disk != nil:
		s.Bus.AddDevice(g.vbdSpec(back.ID))
		g.Disk.Reattach(back.ID)
	default:
		return fmt.Errorf("core: guest %s has no %s", g.Dom.Name, typ)
	}
	return nil
}

// DaemonVM is a unikernelized daemon service VM (§5.5): a Kite guest
// running one daemon — here the OpenDHCP port.
type DaemonVM struct {
	Guest  *Guest
	Server *apps.DHCPServer
}

// CreateDHCPDaemonVM builds the rumprun DHCP service VM on a network
// domain's bridge, leasing poolStart..poolStart+poolSize-1.
func (s *System) CreateDHCPDaemonVM(nd *NetworkDomain, ip netpkt.IP,
	poolStart netpkt.IP, poolSize int) (*DaemonVM, error) {

	g, err := s.CreateGuest(GuestConfig{
		Name: "dhcp-vm", IP: ip, Net: nd,
		Profile: guestos.KiteDHCPDomain(), Seed: 0xd4c9,
	})
	if err != nil {
		return nil, err
	}
	srv, err := apps.NewDHCPServer(g.Stack, poolStart, poolSize)
	if err != nil {
		return nil, err
	}
	return &DaemonVM{Guest: g, Server: srv}, nil
}

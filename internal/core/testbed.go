package core

import (
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/nic"
	"kite/internal/nvme"
)

// Testbed reproduces Table 2's hardware: a server machine (Xeon E5-2695,
// 24 cores, 64 GB, Intel 82599ES 10GbE, Samsung 970 EVO Plus NVMe) running
// Xen, directly cabled to a client machine (Core i5-6600K, 4 cores, same
// NIC) that generates load. The server's NIC and NVMe are created
// PCI-assignable, ready for passthrough into driver domains.
type Testbed struct {
	System *System

	// Server-side passthrough devices.
	ServerNIC *nic.NIC
	NVMe      *nvme.Device

	// Client is the load-generator machine.
	Client *netstack.Host

	// Addresses used throughout the experiments.
	GuestIP  netpkt.IP
	ClientIP netpkt.IP
}

// NewTestbed assembles the two machines and the cable between them.
func NewTestbed(seed uint64) *Testbed { return newTestbed(NewSystem(seed)) }

// NewTestbedSharded assembles the same testbed on a sharded event core
// with one cluster shard per PV queue (plus shard 0 for everything else).
func NewTestbedSharded(seed uint64, queues int) *Testbed {
	return newTestbed(NewShardedSystem(seed, queues))
}

func newTestbed(sys *System) *Testbed {
	seed := sys.seed
	serverNIC := nic.New(sys.Eng, "ixgbe0", netpkt.MAC{0x90, 0xe2, 0xba, 0, 0, 0x10}, "03:00.0")
	client := netstack.NewHost(sys.Eng, netstack.HostConfig{
		Name: "client", CPUs: 4, IP: netpkt.IPv4(10, 0, 0, 2),
		MAC: netpkt.MAC{0x90, 0xe2, 0xba, 0, 0, 0x20}, BDF: "81:00.0",
		Costs: netstack.LinuxGuestCosts(), Seed: seed ^ 0xc11e,
		Pool: sys.Pool,
	})
	nic.Connect(serverNIC, client.NIC, nic.DefaultLink())
	dev := nvme.New(sys.Eng, nvme.Default970EvoPlus(), "04:00.0")
	return &Testbed{
		System:    sys,
		ServerNIC: serverNIC,
		NVMe:      dev,
		Client:    client,
		GuestIP:   netpkt.IPv4(10, 0, 0, 1),
		ClientIP:  netpkt.IPv4(10, 0, 0, 2),
	}
}

// NetworkRig is the common network-domain experiment setup: driver domain
// of the chosen kind, one guest attached, everything connected.
type NetworkRig struct {
	*Testbed
	ND    *NetworkDomain
	Guest *Guest
}

// NewNetworkRig builds the §5.3 setup and drives handshakes to ready.
func NewNetworkRig(kind DriverKind, seed uint64) (*NetworkRig, error) {
	return NewNetworkRigCfg(NetworkRigConfig{Kind: kind, Seed: seed})
}

// NetworkRigConfig tunes the network rig beyond the classic kind+seed
// pair; the zero value of the extra fields reproduces NewNetworkRig.
type NetworkRigConfig struct {
	Kind DriverKind
	Seed uint64
	// Queues requests a multi-queue vif. The backend advertises one queue
	// per driver-domain vCPU, so a multi-queue rig gives the driver domain
	// 2 × Queues vCPUs.
	Queues int
}

// NewNetworkRigCfg builds the rig from the full config. Multi-queue rigs
// run on a sharded event core (one cluster shard per queue): the driver
// domain and the guest each get one vCPU per queue plus a misc/stack vCPU,
// and queue i of both ring ends is pinned to shard 1+i. Single-queue rigs
// keep the classic single-heap engine, byte-for-byte.
func NewNetworkRigCfg(cfg NetworkRigConfig) (*NetworkRig, error) {
	if cfg.Queues > 1 {
		return buildNetworkRig(NewTestbedSharded(cfg.Seed, cfg.Queues), cfg)
	}
	return buildNetworkRig(NewTestbed(cfg.Seed), cfg)
}

// buildNetworkRig builds the rig on tb: sharded for a multi-queue cfg.
func buildNetworkRig(tb *Testbed, cfg NetworkRigConfig) (*NetworkRig, error) {
	vcpus := 0
	if cfg.Queues > 1 {
		// One pinned vCPU per queue worker plus the same width again
		// for the bridge/misc path, so the bridge capacity scales with
		// the queue count exactly like the legacy Pick-anywhere rig.
		vcpus = 2 * cfg.Queues
	}
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{
		Kind: cfg.Kind, NIC: tb.ServerNIC, VCPUs: vcpus,
	})
	if err != nil {
		return nil, err
	}
	guest, err := tb.System.CreateGuest(GuestConfig{
		Name: "domU", IP: tb.GuestIP, Net: nd, Seed: cfg.Seed,
		NetQueues: cfg.Queues,
	})
	if err != nil {
		return nil, err
	}
	rig := &NetworkRig{Testbed: tb, ND: nd, Guest: guest}
	if !tb.System.RunReady(guest.Ready, 500000) {
		return nil, errNotReady
	}
	return rig, nil
}

// StorageRig is the common storage-domain experiment setup (§5.4): driver
// domain of the chosen kind, one guest with a vbd and mounted filesystem.
type StorageRig struct {
	*Testbed
	SD    *StorageDomain
	Guest *Guest
}

// StorageRigConfig tunes the rig.
type StorageRigConfig struct {
	Kind       DriverKind
	Seed       uint64
	DiskBytes  int64 // vbd window (default 64 GiB)
	CacheBytes int64 // guest page cache (default 64 MiB)
	Tuning     *TuningKnobs
	// Queues requests a multi-queue vbd (blk-mq style). The backend
	// advertises one hardware queue per driver-domain vCPU, so a
	// multi-queue rig gives the storage domain Queues vCPUs.
	Queues int
}

// TuningKnobs exposes blkback's design-choice toggles for ablations.
type TuningKnobs struct {
	Persistent, Indirect, Batch bool
}

// NewStorageRig builds the §5.4 setup.
func NewStorageRig(cfg StorageRigConfig) (*StorageRig, error) {
	return buildStorageRig(NewTestbed(cfg.Seed), cfg)
}

// buildStorageRig builds the rig on tb.
func buildStorageRig(tb *Testbed, cfg StorageRigConfig) (*StorageRig, error) {
	vcpus := 0
	if cfg.Queues > 1 {
		vcpus = cfg.Queues
	}
	sd, err := tb.System.CreateStorageDomain(StorageDomainConfig{
		Kind: cfg.Kind, Device: tb.NVMe, VCPUs: vcpus, Tuning: cfg.Tuning})
	if err != nil {
		return nil, err
	}
	disk := cfg.DiskBytes
	if disk == 0 {
		disk = 64 << 30
	}
	guest, err := tb.System.CreateGuest(GuestConfig{
		Name: "domU", Storage: sd, DiskBytes: disk,
		CacheBytes: cfg.CacheBytes, Seed: cfg.Seed,
		BlkQueues: cfg.Queues,
	})
	if err != nil {
		return nil, err
	}
	rig := &StorageRig{Testbed: tb, SD: sd, Guest: guest}
	if !tb.System.RunReady(guest.Ready, 500000) {
		return nil, errNotReady
	}
	return rig, nil
}

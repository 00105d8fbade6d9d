package core

import (
	"fmt"

	"kite/internal/mem"
	"kite/internal/netpkt"
)

// FleetConfig describes a fleet topology: one Kite network driver domain
// (and optionally one storage driver domain) serving Guests single-queue
// tenant VMs through shared DRR service lanes. This is the "hundreds of
// guests per driver domain" configuration the paper's lightweight domains
// make practical — per-tenant dedicated worker threads would not survive
// the scale, so the backends run in fleet mode (pvback.Lane).
type FleetConfig struct {
	Guests int
	// Lanes is the service-lane count (= cluster shards); default 4.
	Lanes int
	Seed  uint64
	// Storage attaches a per-guest vbd window of DiskBytes (default
	// 8 MiB) on a fleet-mode storage domain.
	Storage   bool
	DiskBytes int64
}

// FleetRig is a built fleet topology, handshakes completed.
type FleetRig struct {
	*Testbed
	ND     *NetworkDomain
	SD     *StorageDomain // nil without FleetConfig.Storage
	Guests []*Guest
}

// fleetTenantBytes is the heap a net-only tenant is budgeted, set-up and
// one wave: about half again the 62 KiB a 1024-tenant fleet grows by a
// tenant. NewFleetRig reserves this much per tenant on 2 MiB pages, and
// TestFleetFootprint holds the fleet's growth inside the reservation.
const fleetTenantBytes = 96 << 10

// fleetVbdBytes is what a storage fleet adds a tenant: its vbd's rings,
// grants and cache set-up (14 KiB measured at 1024 tenants) and one block
// round trip's cache chunk and persistent grant (23 KiB more), rounded up.
// It is not the cache's 1 MiB: that is a bound the cache fills on demand,
// and reserving it would ask for 1 GiB of heap beside 1024 tenants and
// 8 GiB beside 8192, nearly all of it never touched.
const fleetVbdBytes = 48 << 10

// maxFleetGuests is how many tenants fleetGuestIP can number: the third
// octet runs from 2 to 255, so tenant 65,024 would wrap to 10.0.0.0 and
// tenant 65,026 to the client's 10.0.0.2.
const maxFleetGuests = (256 - 2) << 8

// fleetGuestIP returns tenant i's address: 10.0.2.0 onward, clear of the
// testbed's 10.0.0.x addresses, for i < maxFleetGuests.
func fleetGuestIP(i int) netpkt.IP {
	return netpkt.IPv4(10, 0, byte(2+i>>8), byte(i))
}

// GuestIPOf returns tenant i's address.
func (r *FleetRig) GuestIPOf(i int) netpkt.IP { return fleetGuestIP(i) }

// NewFleetRig builds the fleet on a sharded event core (one cluster shard
// per service lane) and drives every handshake to completion. Tenant i is
// pinned to lane i mod Lanes on both ring ends, so ring events never cross
// shards.
//
// Before anything is built it reserves the fleet's heap on 2 MiB pages
// (mem.ReserveHuge, fleetTenantBytes a tenant): a wave touches every
// tenant's own pages and structs, a thousand tenants' worth of them miss
// a 4 KiB TLB on nearly every touch, and one 2 MiB entry covers about
// twenty tenants (DESIGN §14.6).
func NewFleetRig(cfg FleetConfig) (*FleetRig, error) {
	lanes := cfg.Lanes
	if lanes == 0 {
		lanes = 4
	}
	if cfg.Guests <= 0 {
		return nil, fmt.Errorf("core: fleet needs at least one guest")
	}
	if cfg.Guests > maxFleetGuests {
		return nil, fmt.Errorf("core: fleet of %d guests: tenant addresses run out at %d", cfg.Guests, maxFleetGuests)
	}
	perTenant := int64(fleetTenantBytes)
	if cfg.Storage {
		perTenant += fleetVbdBytes
	}
	mem.ReserveHuge(int64(cfg.Guests) * perTenant)
	tb := NewTestbedSharded(cfg.Seed, lanes)
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{
		Kind: KindKite, NIC: tb.ServerNIC, Fleet: true,
	})
	if err != nil {
		return nil, err
	}
	rig := &FleetRig{Testbed: tb, ND: nd}
	if cfg.Storage {
		disk := cfg.DiskBytes
		if disk == 0 {
			disk = 8 << 20
		}
		sd, err := tb.System.CreateStorageDomain(StorageDomainConfig{
			Kind: KindKite, Device: tb.NVMe, FleetLanes: lanes,
		})
		if err != nil {
			return nil, err
		}
		rig.SD = sd
		cfg.DiskBytes = disk
	}
	for i := 0; i < cfg.Guests; i++ {
		gc := GuestConfig{
			Name: fmt.Sprintf("tenant%03d", i), IP: fleetGuestIP(i),
			Net: nd, Fleet: true, FleetLane: i % lanes,
			Seed: cfg.Seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15),
		}
		if cfg.Storage {
			gc.Storage = rig.SD
			gc.DiskBytes = cfg.DiskBytes
			gc.CacheBytes = 1 << 20
		}
		g, err := tb.System.CreateGuest(gc)
		if err != nil {
			return nil, err
		}
		rig.Guests = append(rig.Guests, g)
	}
	// Cursor instead of a full rescan: RunReady polls after every event, so
	// restarting from guest 0 each time makes bring-up O(guests²) — the
	// cursor only ever advances, and guests never un-ready during setup.
	cursor := 0
	allReady := func() bool {
		for cursor < len(rig.Guests) && rig.Guests[cursor].Ready() {
			cursor++
		}
		return cursor == len(rig.Guests)
	}
	// The handshake budget scales with the fleet: every tenant runs the
	// full xenbus negotiation plus ring setup.
	if !tb.System.RunReady(allReady, uint64(cfg.Guests+1)*500000) {
		return nil, errNotReady
	}
	return rig, nil
}

package main

import (
	"fmt"

	"kite/internal/core"
)

// The create functions rebuild a workload's topology piece by piece through
// the same public core calls its rig constructor makes, but stop before
// RunReady: no xenbus handshake runs. Timing one gives setup.create_s, and
// setup_s (always the real constructor) minus it gives setup.handshake_s.
// If a constructor changes shape these must follow it; the split may drift,
// the total cannot.

func createNet(queues int) func(*spec, uint64) error {
	return func(s *spec, seed uint64) error {
		tb, vcpus := core.NewTestbed(seed), 0
		if queues > 1 {
			tb, vcpus = core.NewTestbedSharded(seed, queues), 2*queues
		}
		nd, err := tb.System.CreateNetworkDomain(core.NetworkDomainConfig{
			Kind: core.KindKite, NIC: tb.ServerNIC, VCPUs: vcpus,
		})
		if err != nil {
			return err
		}
		_, err = tb.System.CreateGuest(core.GuestConfig{
			Name: "domU", IP: tb.GuestIP, Net: nd, Seed: seed, NetQueues: queues,
		})
		return err
	}
}

func createFleet(s *spec, seed uint64) error {
	const lanes = 4
	tb := core.NewTestbedSharded(seed, lanes)
	nd, err := tb.System.CreateNetworkDomain(core.NetworkDomainConfig{
		Kind: core.KindKite, NIC: tb.ServerNIC, Fleet: true,
	})
	if err != nil {
		return err
	}
	rig := core.FleetRig{Testbed: tb}
	for i := 0; i < s.guests; i++ {
		_, err := tb.System.CreateGuest(core.GuestConfig{
			Name: fmt.Sprintf("tenant%03d", i), IP: rig.GuestIPOf(i),
			Net: nd, Fleet: true, FleetLane: i % lanes,
			Seed: seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15),
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func createStorage(s *spec, seed uint64) error {
	tb := core.NewTestbed(seed)
	sd, err := tb.System.CreateStorageDomain(core.StorageDomainConfig{
		Kind: core.KindKite, Device: tb.NVMe, VCPUs: blkQueues,
	})
	if err != nil {
		return err
	}
	_, err = tb.System.CreateGuest(core.GuestConfig{
		Name: "domU", Storage: sd, DiskBytes: blkDisk, Seed: seed, BlkQueues: blkQueues,
	})
	return err
}

package kite

import (
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	tb := NewTestbed(100)
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{
		Kind: KindKite, NIC: tb.ServerNIC,
	})
	if err != nil {
		t.Fatal(err)
	}
	guest, err := tb.System.CreateGuest(GuestConfig{
		Name: "domU", IP: tb.GuestIP, Net: nd, Seed: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.System.RunReady(guest.Ready, 500000) {
		t.Fatal("guest never ready")
	}
	// Let the system go idle first: a cold ping pays the idle-vCPU wake
	// path, the regime Figure 7's ping numbers live in.
	tb.System.Eng.RunFor(5 * Millisecond)
	var rtt Time = -1
	tb.Client.Stack.Ping(tb.GuestIP, 56, func(d Time) { rtt = d })
	if !tb.System.RunReady(func() bool { return rtt >= 0 }, 500000) {
		t.Fatal("ping never completed")
	}
	// Calibrated PV-path RTT should land in the paper's neighbourhood
	// (Fig 7: 0.31 ms for Kite); accept a generous band.
	if rtt < 50*Microsecond || rtt > Millisecond {
		t.Fatalf("PV ping RTT = %v, outside plausible band", rtt)
	}
}

func TestFacadeProfiles(t *testing.T) {
	if len(UbuntuDriverDomain().Syscalls) != 171 {
		t.Fatal("ubuntu syscall inventory wrong through facade")
	}
	if len(KiteNetworkDomain().Syscalls) != 14 || len(KiteStorageDomain().Syscalls) != 18 {
		t.Fatal("kite syscall inventories wrong through facade")
	}
	if KiteDHCPDomain().BootTime() >= UbuntuGuest().BootTime() {
		t.Fatal("daemon VM boot not lightweight")
	}
}

func TestFacadeSecurity(t *testing.T) {
	kiteNet := KiteNetworkDomain()
	for _, cve := range Table3CVEs() {
		if CVEApplies(cve, kiteNet) {
			t.Fatalf("%s applies to the Kite network domain", cve.ID)
		}
	}
	if len(GadgetTable) != 6 || GadgetTable[0].Name != "Kite" {
		t.Fatalf("gadget table has %d rows, first %q; want 6, Kite first", len(GadgetTable), GadgetTable[0].Name)
	}
}

func TestFacadeStorageRig(t *testing.T) {
	rig, err := NewStorageRig(StorageRigConfig{Kind: KindKite, Seed: 5, DiskBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if rig.Guest.FS == nil || rig.Guest.Disk == nil {
		t.Fatal("storage rig missing filesystem or disk")
	}
	if !rig.Guest.Disk.Persistent() {
		t.Fatal("kite vbd should negotiate persistent grants")
	}
}

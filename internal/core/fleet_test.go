package core

import (
	"testing"

	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/xen"
)

// TestFleetAddressesDoNotWrap checks the fleet's address plan without
// building a tenant: every tenant NewFleetRig accepts has its own address
// outside the testbed's 10.0.0.x and 10.0.1.x, and one tenant more — whose
// address would wrap to 10.0.0.0 — is refused before anything is built.
func TestFleetAddressesDoNotWrap(t *testing.T) {
	seen := make(map[netpkt.IP]int, maxFleetGuests)
	for i := 0; i < maxFleetGuests; i++ {
		ip := fleetGuestIP(i)
		if ip[0] != 10 || ip[1] != 0 || ip[2] < 2 {
			t.Fatalf("tenant %d: address %v outside 10.0.2.0-10.0.255.255", i, ip)
		}
		if j, dup := seen[ip]; dup {
			t.Fatalf("tenants %d and %d share %v", j, i, ip)
		}
		seen[ip] = i
	}
	for _, guests := range []int{0, maxFleetGuests + 1, maxFleetGuests + 2} {
		if rig, err := NewFleetRig(FleetConfig{Guests: guests}); err == nil || rig != nil {
			t.Errorf("NewFleetRig accepted %d guests", guests)
		}
	}
}

// TestFleetRigServesTenants builds a small fleet and checks the whole
// multi-tenant path: every tenant's vif lands on its hinted lane (the
// driver's pairings are the record of who is attached where), datagrams
// flow both ways for every tenant, and (with storage) every tenant's vbd
// round-trips data through its fleet lane.
func TestFleetRigServesTenants(t *testing.T) {
	const guests, lanes = 12, 4
	rig, err := NewFleetRig(FleetConfig{
		Guests: guests, Lanes: lanes, Seed: 0xf1ee7,
		Storage: true, DiskBytes: 4 << 20,
	})
	if err != nil {
		t.Fatalf("NewFleetRig: %v", err)
	}
	sys := rig.Testbed.System

	if got := len(rig.ND.Driver.VIFs()); got != guests {
		t.Fatalf("driver serves %d vifs, want %d", got, guests)
	}
	if got := len(rig.SD.Driver.Instances()); got != guests {
		t.Fatalf("driver serves %d vbds, want %d", got, guests)
	}
	hinted := make(map[xen.DomID]int, guests) // lane by tenant domain
	for i, g := range rig.Guests {
		hinted[g.Dom.ID] = i % lanes
	}
	for i, v := range rig.ND.Driver.VIFs() {
		if v.Lane() == nil {
			t.Fatalf("vif %d has no service lane", i)
		}
		if want, ok := hinted[v.FrontDom()]; !ok || v.Lane().ID() != want {
			t.Errorf("vif %d (dom%d) on lane %d, want tenant's hinted lane %d", i, v.FrontDom(), v.Lane().ID(), want)
		}
		delete(hinted, v.FrontDom())
		if wakes, runs := v.PusherRuns(); wakes != 0 || runs != 0 {
			t.Fatalf("lane-served vif %d reports pusher wakes=%d runs=%d, want none", i, wakes, runs)
		}
	}
	for i, lane := range rig.ND.Driver.Lanes() {
		if lane.Members() == 0 {
			t.Errorf("net lane %d has no members", i)
		}
	}
	if len(hinted) != 0 {
		t.Errorf("%d tenants have no vif", len(hinted))
	}

	// Every tenant pings the client and the client answers.
	got := make([]int, guests)
	rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) {
		for i := 0; i < guests; i++ {
			if p.Src == rig.GuestIPOf(i) {
				got[i]++
			}
		}
	})
	var backAll int
	for i, g := range rig.Guests {
		i := i
		g.Stack.BindUDP(9001, func(p netstack.UDPPacket) {
			_ = i
			backAll++
		})
	}
	payload := make([]byte, 200)
	for i, g := range rig.Guests {
		for j := range payload {
			payload[j] = byte(i*17 + j)
		}
		g.Stack.SendUDP(rig.ClientIP, 9000, 12000, payload)
	}
	if !sys.RunReady(func() bool {
		for i := range got {
			if got[i] == 0 {
				return false
			}
		}
		return true
	}, 5_000_000) {
		t.Fatalf("client did not hear every tenant: %v", got)
	}
	for i := 0; i < guests; i++ {
		rig.Client.Stack.SendUDP(rig.GuestIPOf(i), 9001, 13000, payload)
	}
	if !sys.RunReady(func() bool { return backAll == guests }, 5_000_000) {
		t.Fatalf("tenants heard %d/%d replies", backAll, guests)
	}

	// Storage: every tenant writes and reads back through its lane.
	okRead := make([]bool, guests)
	buf := make([]byte, 4096)
	for i, g := range rig.Guests {
		for j := range buf {
			buf[j] = byte(i*13 + j*7)
		}
		i, g := i, g
		g.Disk.WriteSectors(0, buf, func(err error) {
			if err != nil {
				t.Errorf("tenant %d write: %v", i, err)
				return
			}
			g.Disk.ReadSectors(0, 4096, func(data []byte, err error) {
				if err != nil {
					t.Errorf("tenant %d read: %v", i, err)
					return
				}
				for j := range data {
					if data[j] != byte(i*13+j*7) {
						t.Errorf("tenant %d read corrupt at %d", i, j)
						return
					}
				}
				okRead[i] = true
			})
		})
	}
	if !sys.RunReady(func() bool {
		for _, ok := range okRead {
			if !ok {
				return false
			}
		}
		return true
	}, 10_000_000) {
		t.Fatalf("storage round-trips incomplete: %v", okRead)
	}
	var laneMembers int
	for _, lane := range rig.SD.Driver.Lanes() {
		laneMembers += lane.Members()
	}
	if laneMembers != guests {
		t.Errorf("blk lanes serve %d members, want %d", laneMembers, guests)
	}
}

// TestFleetRigDeterministicAcrossWorkers checks what may and may not depend
// on how many lane workers serve a fleet: two fleets built alike deliver
// the same frames in the same order, and a fleet on one lane delivers the
// same frames as a fleet on four — lanes change when a frame moves, never
// what arrives.
func TestFleetRigDeterministicAcrossWorkers(t *testing.T) {
	run := func(lanes int) (frames, ordered, unordered uint64) {
		rig, err := NewFleetRig(FleetConfig{Guests: 8, Lanes: lanes, Seed: 0xdead})
		if err != nil {
			t.Fatalf("NewFleetRig: %v", err)
		}
		rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) {
			frames++
			var h uint64
			for _, b := range p.Data {
				h = h*31 + uint64(b)
			}
			ordered = ordered*31 + h
			unordered += h
		})
		payload := make([]byte, 128)
		for i, g := range rig.Guests {
			for j := range payload {
				payload[j] = byte(i + j)
			}
			for k := 0; k < 4; k++ {
				g.Stack.SendUDP(rig.ClientIP, 9000, uint16(12000+k), payload)
			}
		}
		rig.Testbed.System.RunReady(func() bool { return frames == 8*4 }, 5_000_000)
		return frames, ordered, unordered
	}
	f4, o4, u4 := run(4)
	if f, o, _ := run(4); f != f4 || o != o4 {
		t.Fatalf("fleet not deterministic: (%d,%x) vs (%d,%x)", f4, o4, f, o)
	}
	if f1, _, u1 := run(1); f1 != f4 || u1 != u4 {
		t.Fatalf("one lane delivered (%d,%x), four lanes (%d,%x)", f1, u1, f4, u4)
	}
}

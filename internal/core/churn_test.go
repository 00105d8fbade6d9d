package core

import (
	"testing"

	"kite/internal/netback"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/sim"
)

// laneMembers sums the demux membership across a fleet driver's lanes.
func laneMembers(rig *FleetRig) int {
	total := 0
	for _, l := range rig.ND.Driver.Lanes() {
		total += l.Members()
	}
	return total
}

// TestFleetTenantChurnMidTraffic closes a quarter of a fleet's tenants
// while their traffic is still in flight, then reconnects them, checking
// every table the churn touches: the driver's VIF set, the lanes'
// demux membership (a departed doorbell must leave its group, not pin a
// dead member slot), each returning tenant's lane, and — the leak canary — the
// frame pool, which must drain to zero outstanding buffers even when a
// vif dies with queued frames.
//
// The traffic is a steady stream, so every lane is between rounds with a
// carrier on its way to the bridge when the vifs go: a departing tenant
// has frames staged in a carrier it shares with its lane-mates. Those
// frames must be dropped at the bridge shard — the port has left the
// bridge — and their buffers must go back to the pool.
func TestFleetTenantChurnMidTraffic(t *testing.T) {
	const guests, lanes = 16, 4
	rig, err := NewFleetRig(FleetConfig{Guests: guests, Lanes: lanes, Seed: 0xc4a2})
	if err != nil {
		t.Fatal(err)
	}
	sys := rig.System
	nd := rig.ND

	idxOf := make(map[netpkt.IP]int, guests)
	for i := range rig.Guests {
		idxOf[fleetGuestIP(i)] = i
	}
	got := make([]int, guests)
	rig.Client.Stack.BindUDP(9000, func(p netstack.UDPPacket) {
		if i, ok := idxOf[p.Src]; ok {
			got[i]++
		}
	})
	payload := make([]byte, 256)
	vifs := make([]*netback.VIF, guests) // by tenant; the driver's order is attach order
	for _, v := range nd.Driver.VIFs() {
		for i, g := range rig.Guests {
			if g.Dom.ID == v.FrontDom() {
				vifs[i] = v
			}
		}
	}

	// One datagram each resolves the client's address, so that from here
	// on every frame a vif takes from its ring is a datagram of the run.
	for i, g := range rig.Guests {
		g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i), payload)
	}
	sys.Eng.Run()
	taken := make([]uint64, guests)
	for i, v := range vifs {
		taken[i] = v.Stats().TxFrames
		got[i] = 0
	}

	// 0, 5, 10, 15: one departure on each of the four lanes.
	churned := []int{0, 5, 10, 15}
	isChurned := make([]bool, guests)
	closed := false

	// Every tenant offers a frame every 2 us for 400 us — rounds run back
	// to back — and the churn hits in the middle of it: closed vifs die
	// with frames in their rings, in their lane's carrier, and queued for
	// the wire. (A tenant stops offering once it has asked for the close:
	// datagrams sent into a downed link would only sit in its ARP queue.)
	start := sys.Eng.Now()
	for k := 0; k < 200; k++ {
		sys.Eng.Schedule(start+sim.Time(2*k)*sim.Microsecond, func() {
			for i, g := range rig.Guests {
				if !closed || !isChurned[i] {
					g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i), payload)
				}
			}
		})
	}
	sys.Eng.RunFor(150 * sim.Microsecond)
	closed = true
	for _, i := range churned {
		isChurned[i] = true
		rig.Guests[i].CloseNet(sys)
	}
	sys.Eng.Run()

	if n := sys.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked across the disconnects", n)
	}
	// A frame netback took from a ring either reached the client or was in
	// a carrier when its vif died (nothing else drops on this path). The
	// second kind must exist, or this run did not test what it claims; and
	// none of them may have been forwarded — a dead vif's frame entering
	// the bridge would re-learn its MAC behind a port that is gone.
	if st := rig.ServerNIC.Stats(); st.TxDrops != 0 {
		t.Fatalf("NIC dropped %d frames: the accounting below needs a lossless wire", st.TxDrops)
	}
	inCarrier := 0
	for i, v := range vifs {
		lost := int(v.Stats().TxFrames-taken[i]) - got[i]
		if lost < 0 || (lost > 0 && !isChurned[i]) {
			t.Fatalf("tenant %d: netback took %d frames, client got %d", i, v.Stats().TxFrames-taken[i], got[i])
		}
		inCarrier += lost
	}
	if inCarrier == 0 {
		t.Fatal("no departing tenant had frames in a lane carrier: the churn missed every round")
	}
	t.Logf("%d frames of departing tenants were dropped from lane carriers", inCarrier)
	for _, i := range churned {
		mac := netpkt.XenMAC(uint16(rig.Guests[i].Dom.ID), 0)
		if p := nd.Bridge.Lookup(mac); p != nil {
			t.Fatalf("tenant %d's MAC is learned behind %s after its vif left the bridge", i, p.PortName())
		}
	}
	if n := laneMembers(rig); n != guests-len(churned) {
		t.Fatalf("lane demux members = %d after departures, want %d", n, guests-len(churned))
	}
	if n := len(nd.Driver.VIFs()); n != guests-len(churned) {
		t.Fatalf("driver holds %d vifs, want %d", n, guests-len(churned))
	}

	// Survivors are unaffected: each delivers a follow-up burst in full.
	base := append([]int(nil), got...)
	for i, g := range rig.Guests {
		if isChurned[i] {
			continue
		}
		for j := 0; j < 4; j++ {
			g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i), payload)
		}
	}
	sys.Eng.Run()
	for i := range rig.Guests {
		want := 0
		if !isChurned[i] {
			want = 4
		}
		if got[i]-base[i] != want {
			t.Fatalf("tenant %d delivered %d post-churn frames, want %d",
				i, got[i]-base[i], want)
		}
	}

	// The departed tenants reconnect onto their original lanes and carry
	// traffic again; the driver's VIF set and lane membership return to
	// full.
	for _, i := range churned {
		if err := rig.Guests[i].Reattach(sys, nd); err != nil {
			t.Fatal(err)
		}
	}
	ready := func() bool {
		for _, i := range churned {
			if !rig.Guests[i].Ready() {
				return false
			}
		}
		return true
	}
	if !sys.RunReady(ready, uint64(guests+1)*500000) {
		t.Fatal("reattached tenants never reconnected")
	}
	if n := len(nd.Driver.VIFs()); n != guests {
		t.Fatalf("driver holds %d vifs after reattach, want %d", n, guests)
	}
	if n := laneMembers(rig); n != guests {
		t.Fatalf("lane demux members = %d after reattach, want %d", n, guests)
	}
	for _, i := range churned {
		var vif *netback.VIF
		for _, v := range nd.Driver.VIFs() {
			if v.FrontDom() == rig.Guests[i].Dom.ID {
				vif = v
			}
		}
		if vif == nil || vif.Lane() == nil || vif.Lane().ID() != i%lanes {
			t.Fatalf("tenant %d's reattached vif is not on its lane %d", i, i%lanes)
		}
	}

	base = append([]int(nil), got...)
	for i, g := range rig.Guests {
		for j := 0; j < 4; j++ {
			g.Stack.SendUDP(rig.ClientIP, 9000, uint16(9001+i), payload)
		}
	}
	sys.Eng.Run()
	for i := range rig.Guests {
		if got[i]-base[i] != 4 {
			t.Fatalf("tenant %d delivered %d frames after reattach, want 4",
				i, got[i]-base[i])
		}
	}
	if n := sys.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked across the churn cycle", n)
	}

	// A departure leaves nothing behind in the control plane either: once
	// warm, further detach/reattach cycles of the same tenants must not grow
	// the store's watch index (the backend's retry and teardown watches, the
	// frontend's backend watch), the ring registries (a dead frontend's
	// rings) or the driver's retry map by anything per cycle — nor a
	// tenant's live grants or guest pages: each reattach grants fresh pages
	// once the old set has ended.
	cycle := func() {
		for _, i := range churned {
			rig.Guests[i].CloseNet(sys)
		}
		sys.Eng.Run()
		for _, i := range churned {
			if err := rig.Guests[i].Reattach(sys, nd); err != nil {
				t.Fatal(err)
			}
		}
		if !sys.RunReady(ready, uint64(guests+1)*500000) {
			t.Fatal("reattached tenants never reconnected")
		}
	}
	for warm := 0; warm < 3; warm++ {
		cycle()
	}
	st := sys.Bus.Store()
	watches, netRings, blkRings, watched := st.Watches(), sys.NetReg.Len(), sys.BlkReg.Len(), nd.Driver.Watched()
	grants, pages := make([]int, guests), make([]int, guests)
	for _, i := range churned {
		grants[i], pages[i] = rig.Guests[i].Dom.LiveGrants(), rig.Guests[i].Dom.Arena.InUse()
	}
	for c := 0; c < 16; c++ {
		cycle()
	}
	for _, i := range churned {
		dom := rig.Guests[i].Dom
		if n, p := dom.LiveGrants(), dom.Arena.InUse(); n != grants[i] || p != pages[i] {
			t.Errorf("tenant %d holds %d grants and %d pages after 16 more churn cycles, %d and %d before",
				i, n, p, grants[i], pages[i])
		}
	}
	if n := st.Watches(); n != watches {
		t.Errorf("store holds %d live watches after 16 more churn cycles, %d before", n, watches)
	}
	if n, b := sys.NetReg.Len(), sys.BlkReg.Len(); n != netRings || b != blkRings {
		t.Errorf("ring registries hold %d net and %d blk publications after 16 more churn cycles, %d and %d before",
			n, b, netRings, blkRings)
	}
	if n := nd.Driver.Watched(); n != watched {
		t.Errorf("driver holds %d retry watches after 16 more churn cycles, %d before", n, watched)
	}
	if n := laneMembers(rig); n != guests {
		t.Fatalf("lane demux members = %d after the churn cycles, want %d", n, guests)
	}
}

package core

import (
	"testing"

	"kite/internal/blkif"
	"kite/internal/netif"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
)

// These tests model the paper's threat scenario (§3.1: all VMs including
// DomUs are potentially malicious): a compromised guest drives hostile
// input into the backend rings. The driver domain must reject the input,
// keep serving well-behaved guests, and never corrupt other domains.

// evilBlkFrontend hand-rolls the vbd handshake so it can push arbitrary
// ring requests without blkfront's validation.
type evilBlkFrontend struct {
	dom  *xen.Domain
	ring *blkif.Ring
	port xen.Port
}

func attachEvilBlk(t *testing.T, sys *System, sd *StorageDomain) *evilBlkFrontend {
	t.Helper()
	dom := sys.HV.CreateDomain(xen.DomainConfig{Name: "evil", VCPUs: 1,
		MemBytes: 64 << 20, IRQLatency: 6 * sim.Microsecond})
	sys.Bus.AddDevice(xenbus.DeviceSpec{
		Type: "vbd", FrontDom: xenbus.DomID(dom.ID), BackDom: xenbus.DomID(sd.Dom.ID),
		DevID: 51712, BackExtra: map[string]string{"params": "2048:2097152"},
	})
	evilCh := blkif.NewChannel(1)
	e := &evilBlkFrontend{dom: dom, ring: evilCh.Rings.Queue(0)}
	sys.BlkReg.Publish(dom.ID, 51712, evilCh)
	e.port = dom.AllocUnbound(sd.Dom.ID)
	dom.SetHandler(e.port, func() {})
	fp := xenbus.FrontendPath(xenbus.DomID(dom.ID), "vbd", 51712)
	sys.Store.Writef(fp+"/event-channel", "%d", e.port)
	if err := sys.Bus.SwitchState(fp, xenbus.StateInitialised); err != nil {
		t.Fatal(err)
	}
	if !sys.RunReady(func() bool {
		bp := xenbus.BackendPath(xenbus.DomID(sd.Dom.ID), "vbd", xenbus.DomID(dom.ID), 51712)
		return sys.Bus.State(bp) == xenbus.StateConnected
	}, 500000) {
		t.Fatal("evil frontend never paired")
	}
	return e
}

func (e *evilBlkFrontend) push(req blkif.Request) {
	e.ring.PushRequest(req)
	if e.ring.PushRequestsAndCheckNotify() {
		e.dom.Notify(e.port)
	}
}

func TestBlkbackSurvivesHostileRequests(t *testing.T) {
	tb := NewTestbed(31)
	sd, err := tb.System.CreateStorageDomain(StorageDomainConfig{Kind: KindKite, Device: tb.NVMe})
	if err != nil {
		t.Fatal(err)
	}
	// An honest guest shares the storage domain.
	honest, err := tb.System.CreateGuest(GuestConfig{
		Name: "honest", Storage: sd, DiskBytes: 1 << 30, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.System.RunReady(honest.Ready, 500000) {
		t.Fatal("honest guest never ready")
	}
	evil := attachEvilBlk(t, tb.System, sd)

	// Attack 1: bogus grant references.
	evil.push(blkif.Request{ID: 1, Op: blkif.OpWrite, Sector: 0,
		Segs: []blkif.Segment{{Ref: 0xdeadbeef, FirstSect: 0, LastSect: 7}}})
	// Attack 2: out-of-range sector with a real grant.
	page := evil.dom.Arena.MustAlloc()
	ref := evil.dom.GrantAccess(sd.Dom.ID, page, false)
	evil.push(blkif.Request{ID: 2, Op: blkif.OpRead, Sector: 1 << 60,
		Segs: []blkif.Segment{{Ref: ref, FirstSect: 0, LastSect: 7}}})
	// Attack 3: oversized direct segment list.
	var segs []blkif.Segment
	for i := 0; i < blkif.MaxSegsDirect+5; i++ {
		p := evil.dom.Arena.MustAlloc()
		segs = append(segs, blkif.Segment{Ref: evil.dom.GrantAccess(sd.Dom.ID, p, false),
			FirstSect: 0, LastSect: 7})
	}
	evil.push(blkif.Request{ID: 3, Op: blkif.OpWrite, Sector: 0, Segs: segs})
	// Attack 4: corrupt segment geometry.
	evil.push(blkif.Request{ID: 4, Op: blkif.OpWrite, Sector: 0,
		Segs: []blkif.Segment{{Ref: ref, FirstSect: 6, LastSect: 2}}})
	// Attack 5: indirect request claiming more segments than allowed.
	evil.push(blkif.Request{ID: 5, Op: blkif.OpIndirect, Imm: blkif.OpWrite,
		IndirectSegs: blkif.MaxSegsIndirect * 4, IndirectRefs: []xen.GrantRef{ref}})

	// All five must be answered (with error status), not wedge the thread.
	answered := 0
	if !tb.System.RunReady(func() bool {
		for {
			rsp, ok := evil.ring.TakeResponse()
			if !ok {
				break
			}
			if rsp.Status != blkif.StatusError {
				t.Fatalf("hostile request %d succeeded", rsp.ID)
			}
			answered++
		}
		return answered >= 5
	}, 2_000_000) {
		t.Fatalf("backend answered only %d of 5 hostile requests", answered)
	}

	// The backend recorded the errors and stayed alive.
	var total uint64
	for _, inst := range sd.Driver.Instances() {
		total += inst.Stats().Errors
	}
	if total < 5 {
		t.Fatalf("backend errors = %d, want >= 5", total)
	}

	// The honest guest still works.
	ok := false
	honest.Disk.WriteSectors(0, make([]byte, 4096), func(err error) { ok = err == nil })
	if !tb.System.RunReady(func() bool { return ok }, 1_000_000) {
		t.Fatal("honest guest I/O failed after the attack")
	}
}

// TestNetbackSurvivesHostileTxRequests drives bogus netif Tx descriptors
// (bad grants, oversized lengths) into a VIF and verifies the pusher
// thread keeps serving the honest guest.
func TestNetbackSurvivesHostileTxRequests(t *testing.T) {
	tb := NewTestbed(32)
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{Kind: KindKite, NIC: tb.ServerNIC})
	if err != nil {
		t.Fatal(err)
	}
	honest, err := tb.System.CreateGuest(GuestConfig{
		Name: "honest", IP: tb.GuestIP, Net: nd, Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tb.System.RunReady(honest.Ready, 500000) {
		t.Fatal("honest guest never ready")
	}

	// Hand-rolled hostile netfront.
	evil := tb.System.HV.CreateDomain(xen.DomainConfig{Name: "evil", VCPUs: 1,
		MemBytes: 64 << 20, IRQLatency: 6 * sim.Microsecond})
	tb.System.Bus.AddDevice(xenbus.DeviceSpec{
		Type: "vif", FrontDom: xenbus.DomID(evil.ID), BackDom: xenbus.DomID(nd.Dom.ID), DevID: 0,
	})
	evilCh := netif.NewChannel(1)
	tx := evilCh.Tx.Queue(0)
	tb.System.NetReg.Publish(evil.ID, 0, evilCh)
	port := evil.AllocUnbound(nd.Dom.ID)
	evil.SetHandler(port, func() {})
	fp := xenbus.FrontendPath(xenbus.DomID(evil.ID), "vif", 0)
	tb.System.Store.Writef(fp+"/event-channel", "%d", port)
	if err := tb.System.Bus.SwitchState(fp, xenbus.StateInitialised); err != nil {
		t.Fatal(err)
	}
	if !tb.System.RunReady(func() bool { return len(nd.Driver.VIFs()) == 2 }, 500000) {
		t.Fatal("evil vif never paired")
	}

	// Bad grant ref and oversized length; then, through a real grant, the
	// widest length the 16-bit field holds, alone and with an offset that
	// wraps Offset+Len to 0 in 16 bits — a bound computed there would pass
	// it and stage a 64 KiB copy into a 4 KiB frame buffer.
	page := evil.Arena.MustAlloc()
	ref := evil.GrantAccess(nd.Dom.ID, page, true)
	hostile := []netif.TxRequest{
		{ID: 1, Ref: 0xbad, Offset: 0, Len: 100},
		{ID: 2, Ref: 0xbad, Offset: 4000, Len: 5000},
		{ID: 3, Ref: ref, Offset: 0, Len: 0xffff},
		{ID: 4, Ref: ref, Offset: 1, Len: 0xffff},
	}
	for _, req := range hostile {
		tx.PushRequest(req)
	}
	if tx.PushRequestsAndCheckNotify() {
		evil.Notify(port)
	}
	answered := 0
	if !tb.System.RunReady(func() bool {
		for {
			rsp, ok := tx.TakeResponse()
			if !ok {
				break
			}
			if rsp.Status == netif.StatusOK {
				t.Fatalf("hostile tx request %d succeeded", rsp.ID)
			}
			answered++
		}
		return answered >= len(hostile)
	}, 1_000_000) {
		t.Fatalf("netback answered only %d of %d hostile requests", answered, len(hostile))
	}
	for _, v := range nd.Driver.VIFs() {
		if v.FrontDom() == evil.ID {
			if st := v.Stats(); st.TxErrors != uint64(len(hostile)) || st.TxFrames != 0 {
				t.Fatalf("evil vif counted %d Tx errors and forwarded %d frames, want %d and 0",
					st.TxErrors, st.TxFrames, len(hostile))
			}
		}
	}

	// The honest guest's data path still works.
	var rtt sim.Time = -1
	tb.Client.Stack.Ping(tb.GuestIP, 56, func(d sim.Time) { rtt = d })
	if !tb.System.RunReady(func() bool { return rtt >= 0 }, 500000) {
		t.Fatal("honest ping failed after the attack")
	}

	// The buffer staged for the bad-ref request went back to the pool when
	// its grant copy failed. The hostile frontend never posted an Rx buffer,
	// so the broadcast ARP flooded to its vif waits in the guest-bound queue
	// until that vif is torn down.
	tb.System.Eng.Run()
	for _, v := range nd.Driver.VIFs() {
		if v.FrontDom() == evil.ID {
			v.Shutdown()
		}
	}
	if n := tb.System.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked", n)
	}
}

// TestNetfrontSurvivesHostileRxResponses plays a hostile backend against a
// guest's netfront: Rx responses whose offset and length leave the posted
// page — one, Offset 0xffff and Len 2, only in arithmetic that does not
// wrap, as a 16-bit sum reads it as 1 — must be refused and counted, with
// no panic, no buffer leaked, and every refused page posted again.
func TestNetfrontSurvivesHostileRxResponses(t *testing.T) {
	tb := NewTestbed(33)
	sys := tb.System
	back := sys.HV.CreateDomain(xen.DomainConfig{Name: "evilback", VCPUs: 1,
		MemBytes: 64 << 20, IRQLatency: 3 * sim.Microsecond})
	victim, err := sys.CreateGuest(GuestConfig{
		Name: "victim", IP: tb.GuestIP, Net: &NetworkDomain{Dom: back}, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The backend's half of the handshake, by hand (netback.Driver.tryPair).
	fp := xenbus.FrontendPath(xenbus.DomID(victim.Dom.ID), "vif", 0)
	bp := xenbus.BackendPath(xenbus.DomID(back.ID), "vif", xenbus.DomID(victim.Dom.ID), 0)
	sys.Store.Writef(bp+"/multi-queue-max-queues", "%d", 1)
	if err := sys.Bus.SwitchState(bp, xenbus.StateInitWait); err != nil {
		t.Fatal(err)
	}
	if !sys.RunReady(func() bool { return sys.Bus.State(fp) == xenbus.StateInitialised }, 500000) {
		t.Fatal("victim never published its rings")
	}
	frontPort, ok := sys.Store.ReadInt(fp + "/event-channel")
	if !ok {
		t.Fatal("victim published no event channel")
	}
	claimed, ok := sys.NetReg.Claim(victim.Dom.ID, 0)
	if !ok {
		t.Fatal("victim's rings are not in the registry")
	}
	rx := claimed.(*netif.Channel).Rx.Queue(0)
	port, err := back.BindInterdomain(victim.Dom.ID, xen.Port(frontPort))
	if err != nil {
		t.Fatal(err)
	}
	back.SetHandler(port, func() {})
	if err := sys.Bus.SwitchState(bp, xenbus.StateConnected); err != nil {
		t.Fatal(err)
	}
	if !sys.RunReady(victim.Ready, 500000) {
		t.Fatal("victim never connected")
	}
	sys.Eng.Run()

	hostile := []netif.RxResponse{
		{Offset: 0xffff, Len: 2, Status: netif.StatusOK},
		{Offset: 0, Len: 0xffff, Status: netif.StatusOK},
		{Offset: 4000, Len: 200, Status: netif.StatusOK},
	}
	for i := range hostile {
		req, ok := rx.TakeRequest()
		if !ok {
			t.Fatal("victim posted too few Rx buffers")
		}
		hostile[i].ID = req.ID
		rx.PushResponse(hostile[i])
	}
	posted := rx.UnconsumedRequests()
	if rx.PushResponsesAndCheckNotify() {
		back.Notify(port)
	}
	sys.Eng.Run()

	st := victim.Net.Stats()
	if st.RxErrors != uint64(len(hostile)) || st.RxFrames != 0 {
		t.Fatalf("victim counted %d Rx errors and accepted %d frames, want %d and 0",
			st.RxErrors, st.RxFrames, len(hostile))
	}
	if got := rx.UnconsumedRequests(); got != posted+len(hostile) {
		t.Fatalf("victim has %d Rx buffers posted, want %d: a refused page was not posted again",
			got, posted+len(hostile))
	}
	victim.Net.Close()
	sys.Eng.Run()
	if n := sys.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked", n)
	}
}

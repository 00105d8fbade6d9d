package core

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"kite/internal/blkif"
	"kite/internal/mem"
	"kite/internal/netback"
	"kite/internal/netif"
	"kite/internal/netpkt"
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
	sys.Store.Write(fp+"/event-channel", strconv.FormatUint(uint64(e.port), 10))
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
	grant := func() xen.GrantRef {
		return evil.dom.GrantAccess(sd.Dom.ID, evil.dom.Arena.MustAlloc(), false)
	}
	ref := grant()
	var wide []blkif.Segment // more direct segments than a slot holds
	for i := 0; i < blkif.MaxSegsDirect+5; i++ {
		wide = append(wide, blkif.Segment{Ref: grant(), FirstSect: 0, LastSect: 7})
	}
	// A descriptor page naming one good segment, then 63 more granted pages.
	descPage := evil.dom.Arena.MustAlloc()
	blkif.PutSegment(descPage, 0, blkif.Segment{Ref: ref, FirstSect: 0, LastSect: 7})
	descRefs := []xen.GrantRef{evil.dom.GrantAccess(sd.Dom.ID, descPage, false)}
	for len(descRefs) < 64 {
		descRefs = append(descRefs, grant())
	}
	good := []blkif.Segment{{Ref: ref, FirstSect: 0, LastSect: 7}}

	// Every hostile request is answered with an error, not left to wedge
	// the thread, and maps at most maxMaps grants on its way to the error.
	// The last four are rejected before blkback maps anything.
	hostile := []struct {
		name    string
		req     blkif.Request
		maxMaps uint64
	}{
		{"bogus grant ref", blkif.Request{Op: blkif.OpWrite,
			Segs: []blkif.Segment{{Ref: 0xdeadbeef, FirstSect: 0, LastSect: 7}}}, 1},
		{"sector out of range", blkif.Request{Op: blkif.OpRead, Sector: 1 << 60, Segs: good}, 1},
		{"sector wrapping past the int64 limit", blkif.Request{Op: blkif.OpRead,
			Sector: math.MaxInt64 - 3, Segs: good}, 1},
		{"oversized direct segment list", blkif.Request{Op: blkif.OpWrite, Segs: wide}, 0},
		{"corrupt segment geometry", blkif.Request{Op: blkif.OpWrite,
			Segs: []blkif.Segment{{Ref: ref, FirstSect: 6, LastSect: 2}}}, 0},
		{"indirect over the segment limit", blkif.Request{Op: blkif.OpIndirect, Imm: blkif.OpWrite,
			IndirectSegs: blkif.MaxSegsIndirect * 4, IndirectRefs: descRefs[:1]}, 0},
		{"indirect with surplus descriptor pages", blkif.Request{Op: blkif.OpIndirect, Imm: blkif.OpRead,
			IndirectSegs: 1, IndirectRefs: descRefs}, 0},
		{"indirect with negative segment count", blkif.Request{Op: blkif.OpIndirect, Imm: blkif.OpRead,
			IndirectSegs: -3, IndirectRefs: descRefs[:1]}, 0},
		{"indirect without descriptor pages", blkif.Request{Op: blkif.OpIndirect, Imm: blkif.OpRead,
			IndirectSegs: 8}, 0},
		{"direct read without segments", blkif.Request{Op: blkif.OpRead}, 0},
	}
	hv := tb.System.HV
	for i, h := range hostile {
		t.Run(h.name, func(t *testing.T) {
			id := uint64(i + 1)
			h.req.ID = id
			maps := hv.Stats().GrantMaps
			evil.push(h.req)
			var got []blkif.Response
			tb.System.RunReady(func() bool {
				for {
					rsp, ok := evil.ring.TakeResponse()
					if !ok {
						return len(got) > 0
					}
					got = append(got, rsp)
				}
			}, 2_000_000)
			if len(got) != 1 || got[0].ID != id || got[0].Status != blkif.StatusError {
				t.Fatalf("responses %+v, want one error for request %d", got, id)
			}
			if n := hv.Stats().GrantMaps - maps; n > h.maxMaps {
				t.Fatalf("%d grant maps, want at most %d", n, h.maxMaps)
			}
		})
	}

	// The backend recorded the errors and stayed alive.
	var total uint64
	for _, inst := range sd.Driver.Instances() {
		total += inst.Stats().Errors
	}
	if total < uint64(len(hostile)) {
		t.Fatalf("backend errors = %d, want >= %d", total, len(hostile))
	}

	// The honest guest still works.
	ok := false
	honest.Disk.WriteSectors(0, make([]byte, 4096), func(err error) { ok = err == nil })
	if !tb.System.RunReady(func() bool { return ok }, 1_000_000) {
		t.Fatal("honest guest I/O failed after the attack")
	}
}

// FuzzBlkbackRequest decodes its input into a short program of blkif
// requests from the hostile frontend, five bytes a request: op and wrapped
// op; segment count (signed, for indirect); sector (small, beyond the disk,
// negative, or near the int64 limit); how many segments or descriptor
// pages; which granted pages they name, bogus ref and sector geometry
// included. The requests go one at a time over two descriptor pages (512
// good descriptors each) and four data pages. blkback must not panic, must
// answer every request exactly once, and must map no more grants for one
// than its legal descriptor pages plus segments.
func FuzzBlkbackRequest(f *testing.F) {
	f.Add([]byte{1, 0, 0, 2, 0, 3, 3, 4, 1, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := NewTestbed(41)
		sd, err := tb.System.CreateStorageDomain(StorageDomainConfig{Kind: KindKite, Device: tb.NVMe})
		if err != nil {
			t.Fatal(err)
		}
		evil := attachEvilBlk(t, tb.System, sd)
		var refs []xen.GrantRef // two descriptor pages, then four data pages
		var desc []*mem.Page
		for i := 0; i < 6; i++ {
			p := evil.dom.Arena.MustAlloc()
			if i < 2 {
				desc = append(desc, p)
			}
			refs = append(refs, evil.dom.GrantAccess(sd.Dom.ID, p, false))
		}
		for _, p := range desc {
			for j := 0; j < blkif.SegsPerIndirectPage; j++ {
				blkif.PutSegment(p, j, blkif.Segment{Ref: refs[2+j%4], FirstSect: j % 8, LastSect: 7})
			}
		}
		hv := tb.System.HV
		answered := map[uint64]int{}
		for id := uint64(1); len(data) >= 5 && id <= 8; id++ {
			b := data[:5]
			data = data[5:]
			req := blkif.Request{ID: id, Op: blkif.Op(b[0] % 6), Imm: blkif.Op(b[0] / 6 % 6),
				IndirectSegs: int(int8(b[1]))}
			switch b[2] % 4 {
			case 0:
				req.Sector = int64(b[2]>>2) * 8
			case 1:
				req.Sector = 1 << 60
			case 2:
				req.Sector = -8
			case 3:
				req.Sector = math.MaxInt64 - int64(b[2]>>2)
			}
			pick := func(i int) xen.GrantRef {
				if b[4]&0x80 != 0 && i == 0 {
					return 0xbad
				}
				return refs[(int(b[4]&7)+i)%len(refs)]
			}
			bound := 0
			if req.Op == blkif.OpIndirect {
				for i := 0; i < int(b[3]%70); i++ {
					req.IndirectRefs = append(req.IndirectRefs, pick(i))
				}
				n := min(max(req.IndirectSegs, 0), blkif.MaxSegsIndirect)
				bound = n + (n+blkif.SegsPerIndirectPage-1)/blkif.SegsPerIndirectPage
			} else {
				for i := 0; i < int(b[3]%16); i++ {
					req.Segs = append(req.Segs, blkif.Segment{Ref: pick(i),
						FirstSect: int(b[4]>>3) & 7, LastSect: (int(b[4]>>3) + i) & 7})
				}
				if req.Op != blkif.OpFlush {
					bound = min(len(req.Segs), blkif.MaxSegsDirect)
				}
			}
			maps := hv.Stats().GrantMaps
			evil.push(req)
			if !tb.System.RunReady(func() bool {
				for {
					rsp, ok := evil.ring.TakeResponse()
					if !ok {
						return answered[id] > 0
					}
					answered[rsp.ID]++
				}
			}, 200_000) {
				t.Fatalf("request %+v never answered", req)
			}
			if n := hv.Stats().GrantMaps - maps; n > uint64(bound) {
				t.Fatalf("request %+v: %d grant maps, want at most %d", req, n, bound)
			}
		}
		tb.System.RunReady(func() bool {
			for {
				rsp, ok := evil.ring.TakeResponse()
				if !ok {
					return false
				}
				answered[rsp.ID]++
			}
		}, 200_000)
		for id, n := range answered {
			if n != 1 {
				t.Fatalf("request %d answered %d times", id, n)
			}
		}
	})
}

// TestNetbackSurvivesHostileTxRequests drives bogus netif Tx descriptors
// (bad grants, oversized lengths, runts) into a VIF and verifies the pusher
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

	evil, evilCh, port, vif := attachEvilVIF(t, tb.System, nd)
	tx := evilCh.Tx.Queue(0)

	// Bad grant ref and oversized length; then, through a real grant, the
	// widest length the 16-bit field holds, alone and with an offset that
	// wraps Offset+Len to 0 in 16 bits — a bound computed there would pass
	// it and stage a 64 KiB copy into a 4 KiB frame buffer; last, runts
	// shorter than an Ethernet header, which netback refuses rather than
	// hand the bridge to drop.
	page := evil.Arena.MustAlloc()
	ref := evil.GrantAccess(nd.Dom.ID, page, true)
	hostile := []netif.TxRequest{
		{ID: 1, Ref: 0xbad, Offset: 0, Len: 100},
		{ID: 2, Ref: 0xbad, Offset: 4000, Len: 5000},
		{ID: 3, Ref: ref, Offset: 0, Len: 0xffff},
		{ID: 4, Ref: ref, Offset: 1, Len: 0xffff},
		{ID: 5, Ref: ref, Offset: 0, Len: 0},
		{ID: 6, Ref: ref, Offset: 0, Len: netpkt.EthHeaderLen - 1},
	}
	// Each request is a batch of its own, so none is refused for sharing a
	// batch with a bad one.
	dropped := nd.Bridge.Stats().Dropped
	answered := 0
	for i, req := range hostile {
		tx.PushRequest(req)
		if tx.PushRequestsAndCheckNotify() {
			evil.Notify(port)
		}
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
			return answered > i
		}, 1_000_000) {
			t.Fatalf("netback answered only %d of %d hostile requests", answered, len(hostile))
		}
	}
	if st := vif.Stats(); st.TxErrors != uint64(len(hostile)) || st.TxFrames != 0 {
		t.Fatalf("evil vif counted %d Tx errors and forwarded %d frames, want %d and 0",
			st.TxErrors, st.TxFrames, len(hostile))
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
	if n := nd.Bridge.Stats().Dropped - dropped; n != 0 {
		t.Fatalf("the bridge dropped %d frames, want 0: a runt reached it", n)
	}
	vif.Shutdown()
	if n := tb.System.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked", n)
	}
}

// TestNetbackCountsAcceptedTxBytes pushes one batch of Tx requests with
// distinct lengths, two of them refused (a bogus grant, a runt): the VIF's
// TxFrames must count the accepted requests and its TxBytes the sum of
// their lengths.
func TestNetbackCountsAcceptedTxBytes(t *testing.T) {
	tb := NewTestbed(35)
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{Kind: KindKite, NIC: tb.ServerNIC})
	if err != nil {
		t.Fatal(err)
	}
	evil, ch, port, vif := attachEvilVIF(t, tb.System, nd)
	tx := ch.Tx.Queue(0)
	ref := evil.GrantAccess(nd.Dom.ID, evil.Arena.MustAlloc(), true)
	reqs := []netif.TxRequest{
		{ID: 1, Ref: ref, Len: 60},
		{ID: 2, Ref: 0xbad, Len: 500},
		{ID: 3, Ref: ref, Offset: 100, Len: 1400},
		{ID: 4, Ref: ref, Len: netpkt.EthHeaderLen - 1},
		{ID: 5, Ref: ref, Len: 333},
	}
	lens := map[uint16]uint64{}
	for _, r := range reqs {
		lens[r.ID] = uint64(r.Len)
		tx.PushRequest(r)
	}
	if tx.PushRequestsAndCheckNotify() {
		evil.Notify(port)
	}
	var frames, bytes uint64
	answered := 0
	if !tb.System.RunReady(func() bool {
		for {
			rsp, ok := tx.TakeResponse()
			if !ok {
				return answered == len(reqs)
			}
			answered++
			if rsp.Status == netif.StatusOK {
				frames++
				bytes += lens[rsp.ID]
			}
		}
	}, 1_000_000) {
		t.Fatalf("netback answered %d of %d requests", answered, len(reqs))
	}
	if st := vif.Stats(); frames != 3 || st.TxFrames != frames || st.TxBytes != bytes {
		t.Fatalf("%d accepted: vif counted %d frames and %d bytes, want %d and %d",
			frames, st.TxFrames, st.TxBytes, frames, bytes)
	}
}

// TestNetbackAnswersHostileRxRequestsPerOp posts one Rx request whose ref
// is bogus and one through a real grant, then delivers two broadcast
// frames: the bogus request must fail alone, and the good one must be
// answered OK with its frame in the page.
func TestNetbackAnswersHostileRxRequestsPerOp(t *testing.T) {
	tb := NewTestbed(34)
	nd, err := tb.System.CreateNetworkDomain(NetworkDomainConfig{Kind: KindKite, NIC: tb.ServerNIC})
	if err != nil {
		t.Fatal(err)
	}
	evil, ch, port, vif := attachEvilVIF(t, tb.System, nd)
	rx := ch.Rx.Queue(0)
	page := evil.Arena.MustAlloc()
	rx.PushRequest(netif.RxRequest{ID: 1, Ref: 0xbad})
	rx.PushRequest(netif.RxRequest{ID: 2, Ref: evil.GrantAccess(nd.Dom.ID, page, true)})
	if rx.PushRequestsAndCheckNotify() {
		evil.Notify(port)
	}
	frame := pattern(64)
	copy(frame, netpkt.Broadcast[:])
	for range 2 {
		b := tb.System.Pool.GetLen(len(frame))
		copy(b.Extend(len(frame)), frame)
		vif.Deliver(b)
	}
	status := map[uint16]int8{}
	if !tb.System.RunReady(func() bool {
		for {
			rsp, ok := rx.TakeResponse()
			if !ok {
				return len(status) == 2
			}
			status[rsp.ID] = rsp.Status
		}
	}, 1_000_000) {
		t.Fatalf("netback answered %d of 2 Rx requests", len(status))
	}
	if status[1] != netif.StatusError || status[2] != netif.StatusOK {
		t.Fatalf("Rx statuses %v, want 1 failed and 2 OK", status)
	}
	if st := vif.Stats(); st.RxFrames != 1 {
		t.Fatalf("RxFrames %d, want 1", st.RxFrames)
	}
	if !bytes.Equal(page.Bytes()[:len(frame)], frame) {
		t.Fatal("the good request's page does not hold the frame")
	}
	vif.Shutdown()
	tb.System.Eng.Run()
	if n := tb.System.Pool.Outstanding(); n != 0 {
		t.Fatalf("%d frame buffers leaked", n)
	}
}

// attachEvilVIF hand-rolls the vif handshake for a hostile netfront, which
// can then push ring requests that netfront would never build. It returns
// the frontend's domain, rings and event port, and the backend's VIF.
func attachEvilVIF(t testing.TB, sys *System, nd *NetworkDomain) (*xen.Domain, *netif.Channel, xen.Port, *netback.VIF) {
	t.Helper()
	evil := sys.HV.CreateDomain(xen.DomainConfig{Name: "evil", VCPUs: 1,
		MemBytes: 64 << 20, IRQLatency: 6 * sim.Microsecond})
	sys.Bus.AddDevice(xenbus.DeviceSpec{
		Type: "vif", FrontDom: xenbus.DomID(evil.ID), BackDom: xenbus.DomID(nd.Dom.ID), DevID: 0,
	})
	ch := netif.NewChannel(1)
	sys.NetReg.Publish(evil.ID, 0, ch)
	port := evil.AllocUnbound(nd.Dom.ID)
	evil.SetHandler(port, func() {})
	fp := xenbus.FrontendPath(xenbus.DomID(evil.ID), "vif", 0)
	sys.Store.Write(fp+"/event-channel", strconv.FormatUint(uint64(port), 10))
	if err := sys.Bus.SwitchState(fp, xenbus.StateInitialised); err != nil {
		t.Fatal(err)
	}
	var vif *netback.VIF
	if !sys.RunReady(func() bool {
		for _, v := range nd.Driver.VIFs() {
			if v.FrontDom() == evil.ID {
				vif = v
			}
		}
		return vif != nil
	}, 500000) {
		t.Fatal("evil vif never paired")
	}
	return evil, ch, port, vif
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
	sys.Store.Write(bp+"/multi-queue-max-queues", "1")
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

// FuzzNetbackTxRequest decodes its input into a program of up to 32 netif
// Tx requests from a hand-rolled frontend that skips netfront's checks,
// five bytes a request: the ref's kind (granted to the backend, bogus,
// granted to another domain, revoked) in the low two bits, the request id
// in the next five (so ids repeat) and, in the top bit, a kick that lets
// the backend answer what is pushed so far (otherwise requests share a
// batch with what follows); then Offset and Len, each the full 16 bits.
// netback must not panic, must answer every request exactly once, must
// accept exactly the legal ones — a live grant to it, bytes inside the page,
// at least an Ethernet header long — whatever shares their batch, must count
// what it accepted and refused, and must leak no frame buffer once the vif
// goes.
func FuzzNetbackTxRequest(f *testing.F) {
	// TestNetbackSurvivesHostileTxRequests' four rows, one a request.
	f.Add([]byte{0x05, 0x00, 0x00, 0x00, 0x64, 0x09, 0x0f, 0xa0, 0x13, 0x88, 0x0c, 0x00, 0x00, 0xff, 0xff, 0x10, 0x00, 0x01, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := NewTestbed(42)
		sys := tb.System
		nd, err := sys.CreateNetworkDomain(NetworkDomainConfig{Kind: KindKite, NIC: tb.ServerNIC})
		if err != nil {
			t.Fatal(err)
		}
		evil, ch, port, vif := attachEvilVIF(t, sys, nd)
		tx := ch.Tx.Queue(0)

		page := evil.Arena.MustAlloc()
		copy(page.Bytes(), pattern(mem.PageSize))
		good := evil.GrantAccess(nd.Dom.ID, page, true)
		foreign := evil.GrantAccess(0, page, true) // granted to Dom0
		// Revoked after the others are issued: the next grant would reuse it.
		revoked := evil.GrantAccess(nd.Dom.ID, evil.Arena.MustAlloc(), true)
		if err := evil.EndAccess(revoked); err != nil {
			t.Fatal(err)
		}
		refs := [4]xen.GrantRef{good, 0xbad, foreign, revoked}
		// legal[id] counts the requests under id the backend may accept.
		var legal [32]int
		sent, answered, ok := 0, 0, 0
		drain := func() {
			for {
				rsp, more := tx.TakeResponse()
				if !more {
					return
				}
				answered++
				if rsp.Status == netif.StatusOK {
					if ok++; legal[rsp.ID] == 0 {
						t.Fatalf("netback accepted a hostile request under id %d", rsp.ID)
					}
					legal[rsp.ID]--
				}
			}
		}
		// settle kicks the backend and runs until it has answered every
		// request pushed so far.
		settle := func() {
			if tx.PushRequestsAndCheckNotify() {
				evil.Notify(port)
			}
			if !sys.RunReady(func() bool { drain(); return answered >= sent }, 1_000_000) {
				t.Fatalf("netback answered %d of %d requests", answered, sent)
			}
		}
		for ; len(data) >= 5 && sent < 32; data = data[5:] {
			b := data[:5]
			req := netif.TxRequest{Ref: refs[b[0]&3], ID: uint16(b[0] >> 2 & 31),
				Offset: uint16(b[1])<<8 | uint16(b[2]), Len: uint16(b[3])<<8 | uint16(b[4])}
			if b[0]&3 == 0 && req.Len >= netpkt.EthHeaderLen && int(req.Offset)+int(req.Len) <= mem.PageSize {
				legal[req.ID]++
			}
			tx.PushRequest(req) // 32 requests never fill the 256-slot ring
			sent++
			if b[0]&0x80 != 0 {
				settle()
			}
		}
		settle()
		sys.Eng.Run()
		drain()
		if answered != sent {
			t.Fatalf("netback answered %d times for %d requests", answered, sent)
		}
		for id, n := range legal {
			if n != 0 {
				t.Fatalf("netback refused %d legal requests under id %d", n, id)
			}
		}
		if st := vif.Stats(); st.TxFrames != uint64(ok) || st.TxErrors != uint64(sent-ok) {
			t.Fatalf("vif counted %d Tx frames and %d errors, answered %d OK of %d", st.TxFrames, st.TxErrors, ok, sent)
		}
		vif.Shutdown()
		if n := sys.Pool.Outstanding(); n != 0 {
			t.Fatalf("%d frame buffers leaked", n)
		}
	})
}

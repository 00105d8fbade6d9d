package blkfront

import (
	"bytes"
	"strconv"
	"testing"

	"kite/internal/blkif"
	"kite/internal/mem"
	"kite/internal/pvback"
	"kite/internal/pvfront"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

const testSectors = 4096 // a 2 MiB virtual disk

// rig is a single-queue frontend facing a hand-rolled backend: the test
// plays blkback's half of the handshake, then serves the ring from an
// in-memory disk only while consume is set, recording every request it
// takes — so a test can hold the ring full, answer out of turn, or look at
// exactly how a transfer was cut into requests.
type rig struct {
	t     *testing.T
	eng   *sim.Engine
	hv    *xen.Hypervisor
	back  *xen.Domain
	guest *xen.Domain
	bus   *xenbus.Bus
	dev   *Device
	ring  *blkif.Ring
	port  xen.Port // the backend's end of the event channel

	reg      *pvback.Registry
	backPath string

	disk    []byte
	maps    map[xen.GrantRef]*xen.Mapping
	consume bool
	taken   []blkif.Request // every request served, in ring order
}

const rigDevID = 51712

func newRig(t *testing.T) *rig {
	t.Helper()
	r := newUnconnectedRig(t)
	r.handshake()
	return r
}

// newUnconnectedRig creates the domains and the frontend; the backend has
// not yet said a word, so the device has no queues.
func newUnconnectedRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{t: t, eng: sim.NewEngine(), consume: true,
		disk: make([]byte, testSectors*blkif.SectorSize), maps: map[xen.GrantRef]*xen.Mapping{}}
	r.hv = xen.New(r.eng)
	r.hv.CreateDomain(xen.DomainConfig{Name: "dom0", VCPUs: 1, MemBytes: 16 << 20, Privileged: true})
	r.back = r.hv.CreateDomain(xen.DomainConfig{Name: "back", VCPUs: 1, MemBytes: 16 << 20,
		IRQLatency: 3 * sim.Microsecond})
	r.guest = r.hv.CreateDomain(xen.DomainConfig{Name: "guest", VCPUs: 1, MemBytes: 64 << 20,
		IRQLatency: 6 * sim.Microsecond})
	r.bus = xenbus.New(xenstore.New(r.eng))
	r.reg = pvback.NewRegistry()
	_, r.backPath = r.bus.AddDevice(xenbus.DeviceSpec{
		Type: xenstore.DevVbd, FrontDom: xenbus.DomID(r.guest.ID), BackDom: xenbus.DomID(r.back.ID), DevID: rigDevID,
	})
	r.dev = New(r.eng, Config{Config: pvfront.Config{Dom: r.guest, Bus: r.bus, Registry: r.reg, DevID: rigDevID, BackDom: r.back.ID}})
	return r
}

// handshake plays the backend's half of negotiation, as blkback's driver
// does it, and binds the event channel to serve.
func (r *rig) handshake() {
	t, backPath, reg := r.t, r.backPath, r.reg
	t.Helper()
	st := r.bus.Store()
	st.Write(backPath+"/"+xenstore.KeySectors, strconv.Itoa(testSectors))
	r.bus.WriteFeature(backPath, xenstore.KeyFeatureFlushCache, true)
	r.bus.WriteFeature(backPath, xenstore.KeyFeaturePersistent, true)
	st.Write(backPath+"/"+xenstore.KeyFeatureMaxIndirect, strconv.Itoa(blkif.MaxSegsIndirect))
	st.Write(backPath+"/"+xenstore.KeyMultiQueueMaxQueues, "1")
	if err := r.bus.SwitchState(backPath, xenbus.StateInitWait); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	frontPort, ok := st.ReadInt(r.dev.FrontPath() + "/" + xenstore.KeyEventChannel)
	if !ok {
		t.Fatal("frontend never published its event channel")
	}
	claimed, ok := reg.Claim(r.guest.ID, rigDevID)
	if !ok {
		t.Fatal("frontend never published its ring")
	}
	r.ring = claimed.(*blkif.Channel).Rings.Queue(0)
	var err error
	if r.port, err = r.back.BindInterdomain(r.guest.ID, xen.Port(frontPort)); err != nil {
		t.Fatal(err)
	}
	if err := r.back.SetHandler(r.port, r.serve); err != nil {
		t.Fatal(err)
	}
	if err := r.bus.SwitchState(backPath, xenbus.StateConnected); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if !r.dev.Ready() {
		t.Fatal("frontend never connected")
	}
}

// page returns the backend's mapping of one granted guest page.
func (r *rig) page(ref xen.GrantRef) *mem.Page {
	m := r.maps[ref]
	if m == nil || !m.Live() {
		var err error
		if m, err = r.hv.MapGrant(r.back, r.guest.ID, ref); err != nil {
			r.t.Fatalf("backend map of ref %d: %v", ref, err)
		}
		r.maps[ref] = m
	}
	return m.Page
}

// serve is the backend's event handler: take every request, do the I/O
// against the in-memory disk, answer in order.
func (r *rig) serve() {
	if !r.consume {
		return
	}
	for {
		req, ok := r.ring.TakeRequest()
		if !ok {
			if r.ring.FinalCheckForRequests() {
				continue
			}
			break
		}
		// The slot shares the frontend's slices: keep a copy of our own.
		kept := req
		kept.Segs = append([]blkif.Segment(nil), req.Segs...)
		kept.IndirectRefs = append([]xen.GrantRef(nil), req.IndirectRefs...)
		r.taken = append(r.taken, kept)

		op, segs := r.resolve(req)
		off := int(req.Sector) * blkif.SectorSize
		for _, s := range segs {
			data := r.page(s.Ref).Bytes()[s.FirstSect*blkif.SectorSize:][:s.Bytes()]
			if op == blkif.OpWrite {
				copy(r.disk[off:], data)
			} else if op == blkif.OpRead {
				copy(data, r.disk[off:off+len(data)])
			}
			off += len(data)
		}
		r.ring.PushResponse(blkif.Response{ID: req.ID, Status: blkif.StatusOK})
	}
	if r.ring.PushResponsesAndCheckNotify() {
		r.back.Notify(r.port)
	}
}

// resolve returns the operation a request carries and its data segments,
// reading an indirect request's descriptors through the backend's mappings.
func (r *rig) resolve(req blkif.Request) (blkif.Op, []blkif.Segment) {
	if req.Op != blkif.OpIndirect {
		return req.Op, req.Segs
	}
	var segs []blkif.Segment
	for i := 0; i < req.IndirectSegs; i++ {
		desc := r.page(req.IndirectRefs[i/blkif.SegsPerIndirectPage])
		segs = append(segs, blkif.GetSegment(desc, i%blkif.SegsPerIndirectPage))
	}
	return req.Imm, segs
}

// pattern fills n bytes so that every sector differs from its neighbours and
// from the same sector of another tag.
func pattern(tag byte, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = tag ^ byte(i/blkif.SectorSize*7) ^ byte(i)
	}
	return b
}

// TestSplitAtDirectIndirectBoundary writes and reads back transfers sized
// around the two limits a ring request has — 11 segments direct, 32
// indirect — and checks how each was cut, that every byte arrived where it
// belongs, and that the caller heard about it exactly once.
func TestSplitAtDirectIndirectBoundary(t *testing.T) {
	type cut struct {
		op   blkif.Op
		segs int
	}
	direct, indirect := blkif.OpWrite, blkif.OpIndirect
	for _, tc := range []struct {
		pages int
		want  []cut
	}{
		{blkif.MaxSegsDirect, []cut{{direct, 11}}},
		{blkif.MaxSegsDirect + 1, []cut{{indirect, 12}}},
		{blkif.MaxSegsIndirect, []cut{{indirect, 32}}},
		{blkif.MaxSegsIndirect + 1, []cut{{indirect, 32}, {direct, 1}}},
		{blkif.MaxSegsIndirect + blkif.MaxSegsDirect, []cut{{indirect, 32}, {direct, 11}}},
		{blkif.MaxSegsIndirect + blkif.MaxSegsDirect + 1, []cut{{indirect, 32}, {indirect, 12}}},
	} {
		r := newRig(t)
		const sector = 24
		data := pattern(byte(tc.pages), tc.pages*mem.PageSize)
		calls := 0
		r.dev.WriteSectors(sector, data, func(err error) {
			calls++
			if err != nil {
				t.Errorf("%d pages: write: %v", tc.pages, err)
			}
		})
		r.eng.Run()
		if calls != 1 {
			t.Fatalf("%d pages: write completed %d times", tc.pages, calls)
		}
		if len(r.taken) != len(tc.want) {
			t.Fatalf("%d pages: cut into %d requests, want %d", tc.pages, len(r.taken), len(tc.want))
		}
		at := int64(sector)
		for i, req := range r.taken {
			got := cut{req.Op, len(req.Segs)}
			if req.Op == blkif.OpIndirect {
				got.segs = req.IndirectSegs
				if req.Imm != blkif.OpWrite || len(req.Segs) != 0 {
					t.Fatalf("%d pages: indirect request %d wraps op %d with %d direct segments", tc.pages, i, req.Imm, len(req.Segs))
				}
			}
			if got != tc.want[i] || req.Sector != at {
				t.Fatalf("%d pages: request %d is op %d with %d segments at sector %d, want %+v at %d",
					tc.pages, i, got.op, got.segs, req.Sector, tc.want[i], at)
			}
			at += int64(got.segs * blkif.SectorsPerPage)
		}
		if !bytes.Equal(r.disk[sector*blkif.SectorSize:][:len(data)], data) {
			t.Fatalf("%d pages: disk does not hold what was written", tc.pages)
		}
		if r.disk[sector*blkif.SectorSize-1] != 0 || r.disk[sector*blkif.SectorSize+len(data)] != 0 {
			t.Fatalf("%d pages: write spilled outside its extent", tc.pages)
		}

		calls = 0
		r.dev.ReadSectors(sector, len(data), func(got []byte, err error) {
			calls++
			if err != nil || !bytes.Equal(got, data) {
				t.Errorf("%d pages: read back err=%v, equal=%v", tc.pages, err, bytes.Equal(got, data))
			}
		})
		r.eng.Run()
		if calls != 1 {
			t.Fatalf("%d pages: read completed %d times", tc.pages, calls)
		}
		if st := r.dev.Stats(); st.RingRequests != uint64(2*len(tc.want)) || st.QueuedFull != 0 {
			t.Fatalf("%d pages: stats %+v", tc.pages, st)
		}
		if n := r.dev.BufPool().Outstanding(); n != 0 {
			t.Fatalf("%d pages: %d read buffers outstanding", tc.pages, n)
		}
	}
}

// TestRingFullQueuesAndPumpsFIFO stalls the backend, issues more
// single-sector writes than the ring has slots, and releases it: the
// overflow waits in the frontend's backlog, enters the ring as completions
// free slots, and both the backend and the callers see issue order.
func TestRingFullQueuesAndPumpsFIFO(t *testing.T) {
	r := newRig(t)
	r.consume = false
	const over = 8
	var done []int
	for i := 0; i < blkif.RingSize+over; i++ {
		r.dev.WriteSectors(int64(i), pattern(byte(i), blkif.SectorSize), func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			done = append(done, i)
		})
	}
	r.eng.Run()
	if st := r.dev.Stats(); st.QueuedFull != over || st.RingRequests != blkif.RingSize {
		t.Fatalf("with the backend stalled: %d queued, %d on the ring, want %d and %d",
			st.QueuedFull, st.RingRequests, over, blkif.RingSize)
	}
	if len(done) != 0 || len(r.taken) != 0 {
		t.Fatalf("%d completions, %d requests taken while the backend was stalled", len(done), len(r.taken))
	}
	// Nothing jumps a non-empty backlog, even though the ring has room for
	// it once the first completions are in.
	r.consume = true
	r.serve()
	r.eng.Run()
	if len(r.taken) != blkif.RingSize+over || len(done) != blkif.RingSize+over {
		t.Fatalf("%d requests taken, %d completions, want %d each", len(r.taken), len(done), blkif.RingSize+over)
	}
	for i := range done {
		if r.taken[i].Sector != int64(i) || done[i] != i {
			t.Fatalf("position %d: backend took sector %d, caller %d completed", i, r.taken[i].Sector, done[i])
		}
		if want := pattern(byte(i), blkif.SectorSize); !bytes.Equal(r.disk[i*blkif.SectorSize:][:blkif.SectorSize], want) {
			t.Fatalf("sector %d holds another write's bytes", i)
		}
	}
	q := r.dev.queues[0]
	if len(q.pending) != 0 || q.pendHead != 0 {
		t.Fatalf("backlog not reset after pumping dry: %d entries, head %d", len(q.pending), q.pendHead)
	}
}

// TestStrayResponsesIgnored: a response whose ID is zero, was never issued,
// or was already answered completes nothing; the real one completes its
// caller once. (The ring admits one response per request taken, so five
// writes buy the five responses the test sends.)
func TestStrayResponsesIgnored(t *testing.T) {
	r := newRig(t)
	r.consume = false
	const writes = 5
	var calls [writes]int
	for i := 0; i < writes; i++ {
		r.dev.WriteSectors(int64(i), pattern(byte(i), blkif.SectorSize), func(err error) {
			calls[i]++
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		})
	}
	r.eng.Run()
	var ids [writes]uint64
	for i := range ids {
		req, ok := r.ring.TakeRequest()
		if !ok || req.ID == 0 {
			t.Fatalf("request %d on the ring: %+v, %v (ID 0 never goes on the ring)", i, req, ok)
		}
		ids[i] = req.ID
	}
	answer := func(id uint64) {
		t.Helper()
		if !r.ring.PushResponse(blkif.Response{ID: id, Status: blkif.StatusOK}) {
			t.Fatalf("ring refused the response with ID %d", id)
		}
		if r.ring.PushResponsesAndCheckNotify() {
			r.back.Notify(r.port)
		}
		r.eng.Run()
	}
	for _, stray := range []uint64{0, writes + 1, 1 << 40} {
		answer(stray)
		if calls != [writes]int{} {
			t.Fatalf("a response with ID %d completed a caller: %v", stray, calls)
		}
		if r.dev.takeInflight(stray) != nil {
			t.Fatalf("takeInflight(%d) found a request", stray)
		}
	}
	answer(ids[2])
	answer(ids[2]) // a backend answering twice
	if calls != [writes]int{2: 1} {
		t.Fatalf("completions after answering request 2 twice: %v", calls)
	}
	// The ID went back on the free list exactly once.
	if len(r.dev.freeIDs) != 1 || r.dev.freeIDs[0] != ids[2] {
		t.Fatalf("free IDs %v after one completion", r.dev.freeIDs)
	}
}

// TestValidateRefusesBadRanges: I/O that is unaligned, empty, or not
// entirely on the device fails its caller and never reaches the ring.
func TestValidateRefusesBadRanges(t *testing.T) {
	r := newRig(t)
	sector := make([]byte, blkif.SectorSize)
	for _, tc := range []struct {
		name   string
		sector int64
		n      int
		ok     bool
	}{
		{"last sector", testSectors - 1, blkif.SectorSize, true},
		{"one past the end", testSectors, blkif.SectorSize, false},
		{"straddling the end", testSectors - 1, 2 * blkif.SectorSize, false},
		{"negative sector", -1, blkif.SectorSize, false},
		{"unaligned length", 0, blkif.SectorSize + 1, false},
		{"empty", 0, 0, false},
	} {
		if err := r.dev.validate(tc.sector, tc.n); (err == nil) != tc.ok {
			t.Fatalf("%s: validate = %v", tc.name, err)
		}
		if tc.ok {
			continue
		}
		before := r.dev.Stats()
		var errs []error
		r.dev.WriteSectors(tc.sector, make([]byte, tc.n), func(err error) { errs = append(errs, err) })
		r.dev.ReadSectorsInto(tc.sector, make([]byte, tc.n), func(err error) { errs = append(errs, err) })
		r.dev.ReadSectors(tc.sector, tc.n, func(_ []byte, err error) { errs = append(errs, err) })
		r.eng.Run()
		if len(errs) != 3 || errs[0] == nil || errs[1] == nil || errs[2] == nil {
			t.Fatalf("%s: callers heard %v", tc.name, errs)
		}
		if r.dev.Stats() != before || len(r.taken) != 0 {
			t.Fatalf("%s: refused I/O moved the counters or reached the backend", tc.name)
		}
	}
	r.dev.WriteSectors(testSectors-1, sector, func(err error) {
		if err != nil {
			t.Errorf("write to the last sector: %v", err)
		}
	})
	r.eng.Run()
	if len(r.taken) != 1 {
		t.Fatalf("%d requests reached the backend, want the one valid write", len(r.taken))
	}
}

// TestCloseCancelsBackendWatch: a closed device refuses I/O, announces
// Closed, and leaves no watch behind in the store.
func TestCloseCancelsBackendWatch(t *testing.T) {
	r := newRig(t)
	st := r.bus.Store()
	watches := st.Watches()
	r.dev.Close()
	r.eng.Run()
	if st.Watches() != watches-1 {
		t.Fatalf("store holds %d watches after Close, %d before", st.Watches(), watches)
	}
	if r.dev.Ready() || r.bus.State(r.dev.FrontPath()) != xenbus.StateClosed {
		t.Fatalf("after Close: ready=%v, frontend state %v", r.dev.Ready(), r.bus.State(r.dev.FrontPath()))
	}
	var got error
	r.dev.WriteSectors(0, make([]byte, blkif.SectorSize), func(err error) { got = err })
	r.eng.Run()
	if got == nil {
		t.Fatal("write to a closed device succeeded")
	}
	// The backend going Connected again (a stale write) must not revive it.
	if err := r.bus.SwitchState(r.backPath, xenbus.StateClosed); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if r.dev.Ready() {
		t.Fatal("closed device came back")
	}
}

// TestCloseReleasesOnBackendClosed: a closed device keeps the pages its
// backend still maps, and its watch, until the backend tears down; once the
// backend reaches Closed every grant has ended and every page is back in
// the arena — as before the device connected — and no watch is left.
func TestCloseReleasesOnBackendClosed(t *testing.T) {
	r := newUnconnectedRig(t)
	grants, pages := r.guest.LiveGrants(), r.guest.Arena.InUse()
	st := r.bus.Store()
	watches := st.Watches()
	r.handshake()
	for i := 0; i < 8; i++ {
		r.dev.WriteSectors(int64(i)*512, pattern(byte(i), 256<<10), func(err error) {
			if err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		})
	}
	r.eng.Run()
	if r.guest.LiveGrants() == grants {
		t.Fatal("the writes granted nothing")
	}
	r.dev.Close()
	r.eng.Run()
	if r.guest.LiveGrants() == grants || st.Watches() != watches {
		t.Fatalf("with the backend still up: %d grants (%d before connect), %d watches (%d)",
			r.guest.LiveGrants(), grants, st.Watches(), watches)
	}
	// The backend's teardown: unmap, then Closed.
	for _, m := range r.maps {
		if m.Live() {
			if err := r.hv.UnmapGrant(r.back, m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.bus.SwitchState(r.backPath, xenbus.StateClosed); err != nil {
		t.Fatal(err)
	}
	r.eng.Run()
	if n, p := r.guest.LiveGrants(), r.guest.Arena.InUse(); n != grants || p != pages {
		t.Fatalf("after the backend closed: %d grants and %d pages, %d and %d before connect", n, p, grants, pages)
	}
	if st.Watches() != watches-1 {
		t.Fatalf("store holds %d watches after the release, %d with the device", st.Watches(), watches)
	}
}

// TestWholePageReadCopiesNothing: a read of whole pages lands in the
// caller's buffer without touching the persistent-grant pages' own bytes —
// the backend wrote straight into the loan and the frontend copied
// nothing — and every loan has ended by the time the caller hears.
func TestWholePageReadCopiesNothing(t *testing.T) {
	r := newRig(t)
	copy(r.disk, pattern(0x5a, len(r.disk)))
	const n = 8 * mem.PageSize
	want := r.disk[:n]
	r.dev.ReadSectorsInto(0, make([]byte, n), func(error) {}) // fills the page pool
	r.eng.Run()
	pool := r.dev.queues[0].pool
	if len(pool) != n/mem.PageSize {
		t.Fatalf("pool holds %d pages after an %d-page read", len(pool), n/mem.PageSize)
	}
	for _, pp := range pool {
		for i := range pp.page.Bytes() {
			pp.page.Bytes()[i] = 0xA5
		}
	}
	untouched := bytes.Repeat([]byte{0xA5}, mem.PageSize)
	check := func(how string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: read returned other bytes than the disk holds", how)
		}
		for _, pp := range pool {
			if pp.page.Lent() {
				t.Fatalf("%s: page %d still lent when the caller heard", how, pp.page.ID)
			}
		}
	}
	dst := make([]byte, n)
	r.dev.ReadSectorsInto(0, dst, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		check("ReadSectorsInto", dst)
	})
	r.eng.Run()
	r.dev.ReadSectors(0, n, func(got []byte, err error) {
		if err != nil {
			t.Fatal(err)
		}
		check("ReadSectors", got)
	})
	r.eng.Run()
	for _, pp := range pool {
		if !bytes.Equal(pp.page.Bytes(), untouched) {
			t.Fatalf("page %d's own bytes changed: the read was copied through it", pp.page.ID)
		}
	}
}

// TestReadSizesByteExact: reads smaller than a page, a page and a sector,
// and two requests' worth with a sub-page tail all land byte-exact, both
// into the caller's buffer and a pooled one, and nothing spills past dst.
func TestReadSizesByteExact(t *testing.T) {
	r := newRig(t)
	copy(r.disk, pattern(0x3c, len(r.disk)))
	const sector = 24
	for _, n := range []int{blkif.SectorSize, mem.PageSize + blkif.SectorSize, 44*mem.PageSize + 1024} {
		want := r.disk[sector*blkif.SectorSize:][:n]
		guard := bytes.Repeat([]byte{0xC3}, n+2*mem.PageSize)
		dst := guard[mem.PageSize : mem.PageSize+n]
		calls := 0
		r.dev.ReadSectorsInto(sector, dst, func(err error) {
			calls++
			if err != nil {
				t.Errorf("%d bytes: %v", n, err)
			}
		})
		r.dev.ReadSectors(sector, n, func(got []byte, err error) {
			calls++
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%d bytes: pooled read err=%v, equal=%v", n, err, bytes.Equal(got, want))
			}
		})
		r.eng.Run()
		if calls != 2 {
			t.Fatalf("%d bytes: %d completions, want 2", n, calls)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("%d bytes: ReadSectorsInto returned other bytes than the disk holds", n)
		}
		for i, b := range guard {
			if (i < mem.PageSize || i >= mem.PageSize+n) && b != 0xC3 {
				t.Fatalf("%d bytes: byte %d outside dst changed", n, i-mem.PageSize)
			}
		}
		if out := r.dev.BufPool().Outstanding(); out != 0 {
			t.Fatalf("%d bytes: %d read buffers outstanding", n, out)
		}
	}
}

// TestHostileBackendAfterLoan: a backend that keeps its mappings of a
// read's granted pages reaches the caller's bytes while the read is in
// flight — that is the loan — and never afterwards: not after it answered,
// not after it answered with an error, and not after the frontend closed
// with the read still in flight, even when it answers that read late.
func TestHostileBackendAfterLoan(t *testing.T) {
	const sector, n = 40, 3*mem.PageSize + blkif.SectorSize
	for _, end := range []string{"response", "error response", "close"} {
		r := newRig(t)
		r.consume = false
		copy(r.disk, pattern(0x77, len(r.disk)))
		want := r.disk[sector*blkif.SectorSize:][:n]
		dst := make([]byte, n)
		var pooled []byte // the pooled read's buffer, kept past its callback
		var errs []error
		r.dev.ReadSectorsInto(sector, dst, func(err error) { errs = append(errs, err) })
		r.dev.ReadSectors(sector, n, func(got []byte, err error) { pooled, errs = got, append(errs, err) })
		r.eng.Run()
		for _, part := range r.dev.inflight {
			if part != nil && part.caller.buf != nil {
				pooled = part.caller.readBuf
			}
		}

		// Serve both reads through kept mappings, as a device would.
		var ids []uint64
		for {
			req, ok := r.ring.TakeRequest()
			if !ok {
				break
			}
			ids = append(ids, req.ID)
			_, segs := r.resolve(req)
			off := int(req.Sector) * blkif.SectorSize
			for _, s := range segs {
				off += copy(r.page(s.Ref).Bytes()[s.FirstSect*blkif.SectorSize:][:s.Bytes()], r.disk[off:])
			}
		}
		if len(ids) != 2 {
			t.Fatalf("%s: %d requests on the ring, want 2", end, len(ids))
		}
		if !bytes.Equal(dst[:3*mem.PageSize], want[:3*mem.PageSize]) {
			t.Fatalf("%s: the backend's writes did not land in the lent destination", end)
		}

		respond := func(status int8) {
			for _, id := range ids {
				r.ring.PushResponse(blkif.Response{ID: id, Status: status})
			}
			if r.ring.PushResponsesAndCheckNotify() {
				r.back.Notify(r.port)
			}
			r.eng.Run()
		}
		switch end {
		case "close":
			r.dev.Close()
			r.eng.Run()
		case "error response":
			respond(blkif.StatusError)
		default:
			respond(blkif.StatusOK)
		}
		if end == "response" && (!bytes.Equal(dst, want) || !bytes.Equal(pooled, want)) {
			t.Fatalf("%s: read returned other bytes than the disk holds", end)
		}
		dstWas, pooledWas := bytes.Clone(dst), bytes.Clone(pooled)
		for _, m := range r.maps {
			for i := range m.Page.Bytes() {
				m.Page.Bytes()[i] = 0xEE
			}
		}
		if !bytes.Equal(dst, dstWas) || !bytes.Equal(pooled, pooledWas) {
			t.Fatalf("after the %s, a write through the backend's kept mappings reached the caller's buffer", end)
		}
		if end == "close" {
			// A late OK answer delivers none of the pages' bytes: both
			// reads fail and the caller's buffers stay as they were.
			respond(blkif.StatusOK)
			if !bytes.Equal(dst, dstWas) || !bytes.Equal(pooled, pooledWas) {
				t.Fatal("a read answered after Close copied the backend's bytes into the caller's buffer")
			}
		}
		if wantErr := end != "response"; len(errs) != 2 || (errs[0] != nil) != wantErr || (errs[1] != nil) != wantErr {
			t.Fatalf("%s: callers heard %v", end, errs)
		}
	}
}

// TestFlushNeedsConnection: a flush before negotiation or after Close
// fails its caller through the engine, as refused reads and writes do, and
// never reaches a ring.
func TestFlushNeedsConnection(t *testing.T) {
	for _, when := range []string{"before negotiation", "after close"} {
		var r *rig
		if when == "before negotiation" {
			r = newUnconnectedRig(t)
		} else {
			r = newRig(t)
			r.dev.Close()
			r.eng.Run()
		}
		var errs []error
		r.dev.Flush(func(err error) { errs = append(errs, err) })
		if len(errs) != 0 {
			t.Fatalf("%s: flush failed its caller synchronously", when)
		}
		r.eng.Run()
		if len(errs) != 1 || errs[0] == nil {
			t.Fatalf("%s: flush caller heard %v", when, errs)
		}
		if st := r.dev.Stats(); st.Flushes != 0 || st.RingRequests != 0 || len(r.taken) != 0 {
			t.Fatalf("%s: refused flush moved the counters or reached a ring: %+v", when, st)
		}
	}
}

package netfront

import (
	"encoding/binary"
	"reflect"
	"testing"
	"unsafe"

	"kite/internal/framepool"
	"kite/internal/netif"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/pvback"
	"kite/internal/pvfront"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenbus"
	"kite/internal/xenstore"
)

// admit is one frame entering the Tx ring: when, and which (the frame's
// first payload word).
type admit struct {
	at sim.Time
	id uint32
}

// rig is a single-queue sharded frontend — stack side on shard 0, queue on
// shard 1 — facing a hand-rolled backend that only drains the Tx ring. The
// test reads admission times off the frontend itself: every path that pushes
// a request (a landing hand-off, a replay fire, a completion interrupt
// draining the backlog) is wrapped to note the clock and the frames it
// admitted; the backend, which sees requests in ring order, supplies which
// frames they were.
type rig struct {
	t        *testing.T
	cl       *sim.Cluster
	eng      *sim.Engine
	pool     *framepool.Pool
	bus      *xenbus.Bus
	backPath string
	dev      *Device
	q        *queue

	consume  bool
	admitted []sim.Time // one entry per request pushed, in ring order
	consumed []uint32   // frame ids in the order the backend took them
}

func newRig(t *testing.T) *rig {
	t.Helper()
	cl := sim.NewCluster(2, shardHandoff, 1)
	cl.DeclareEdge(0, 1, shardHandoff)
	cl.DeclareEdge(1, 0, shardHandoff)
	eng := cl.Shard(0)
	hv := xen.New(eng)
	hv.CreateDomain(xen.DomainConfig{Name: "dom0", VCPUs: 1, MemBytes: 16 << 20, Privileged: true})
	back := hv.CreateDomain(xen.DomainConfig{Name: "back", VCPUs: 1, MemBytes: 16 << 20,
		IRQLatency: 3 * sim.Microsecond})
	guest := hv.CreateDomain(xen.DomainConfig{Name: "guest", VCPUs: 2, MemBytes: 16 << 20,
		IRQLatency: 6 * sim.Microsecond})
	bus := xenbus.New(xenstore.New(eng))
	reg := pvback.NewRegistry()
	pool := framepool.New()

	r := &rig{t: t, cl: cl, eng: eng, pool: pool, bus: bus, consume: true}
	mac := netpkt.XenMAC(uint16(guest.ID), 0)
	frontPath, backPath := bus.AddDevice(xenbus.DeviceSpec{
		Type: xenstore.DevVif, FrontDom: xenbus.DomID(guest.ID), BackDom: xenbus.DomID(back.ID),
		FrontExtra: map[string]string{xenstore.KeyMac: mac.String()},
	})
	r.backPath = backPath
	r.dev = New(eng, Config{Config: pvfront.Config{Dom: guest, Bus: bus, Registry: reg, BackDom: back.ID}, MAC: mac,
		Pool: pool, Shards: []*sim.Engine{cl.Shard(1)}})

	// The backend's half of the handshake, as netback.Driver.tryPair does it.
	bus.Store().Write(backPath+"/"+xenstore.KeyMultiQueueMaxQueues, "1")
	if err := bus.SwitchState(backPath, xenbus.StateInitWait); err != nil {
		t.Fatal(err)
	}
	cl.Run()
	frontPort, ok := bus.Store().ReadInt(frontPath + "/" + xenstore.KeyEventChannel)
	if !ok {
		t.Fatal("frontend never published its event channel")
	}
	claimed, ok := reg.Claim(guest.ID, 0)
	if !ok {
		t.Fatal("frontend never published its rings")
	}
	ch := claimed.(*netif.Channel)
	cpu := back.CPUs.CPU(0)
	cpu.SetEngine(cl.Shard(1)) // the ring pair has one owning shard
	port, err := back.BindInterdomain(guest.ID, xen.Port(frontPort))
	if err != nil {
		t.Fatal(err)
	}
	tx := ch.Tx.Queue(0)
	buf := make([]byte, 4)
	back.SetHandler(port, func() {
		if !r.consume {
			return
		}
		for {
			req, ok := tx.TakeRequest()
			if !ok {
				if tx.FinalCheckForRequests() {
					continue
				}
				break
			}
			op := []xen.CopyOp{{
				Src: xen.CopyPtr{Dom: guest.ID, Ref: req.Ref, Offset: int(req.Offset)},
				Dst: xen.CopyPtr{Data: buf}, Len: len(buf),
			}}
			if err := hv.CopyGrantOn(back, cpu, op); err != nil {
				t.Errorf("backend copy: %v", err)
			}
			r.consumed = append(r.consumed, binary.BigEndian.Uint32(buf))
			tx.PushResponse(netif.TxResponse{ID: req.ID, Status: netif.StatusOK})
		}
		if tx.PushResponsesAndCheckNotify() {
			back.Notify(port)
		}
	})
	back.BindPortCPU(port, cpu)
	if err := bus.SwitchState(backPath, xenbus.StateConnected); err != nil {
		t.Fatal(err)
	}
	cl.Run()
	if !r.dev.Ready() {
		t.Fatal("frontend never connected")
	}

	// Wrap the three admitting paths on the queue's shard.
	q := r.dev.queues[0]
	r.q = q
	noting := func(fn func()) func() {
		return func() {
			before := q.stats.TxFrames
			fn()
			for n := q.stats.TxFrames - before; n > 0; n-- {
				r.admitted = append(r.admitted, q.eng.Now())
			}
		}
	}
	land := q.landF
	q.landF = func(a any) { noting(func() { land(a) })() }
	r.dev.q0landF = q.landF // a single-queue SendBatch hands off through the device's copy
	q.replay = sim.NewBatch(q.eng, noting(q.replayPending))
	guest.SetHandler(q.port, noting(q.onEvent))
	return r
}

// at runs fn as an event on the stack's shard at virtual time t: hand-offs
// are posts, and posts only leave a shard from one of its own events.
func (r *rig) at(t sim.Time, fn func()) { r.eng.Schedule(t, fn) }

// frame returns a pooled 64-byte frame whose first word is id.
func (r *rig) frame(id uint32) *framepool.Buf {
	b := r.pool.GetLen(64)
	binary.BigEndian.PutUint32(b.Extend(64), id)
	return b
}

// admits zips admission times with the backend's view of the ring order.
func (r *rig) admits() []admit {
	r.t.Helper()
	if len(r.admitted) != len(r.consumed) {
		r.t.Fatalf("%d frames admitted, backend took %d", len(r.admitted), len(r.consumed))
	}
	out := make([]admit, len(r.admitted))
	for i := range out {
		out[i] = admit{at: r.admitted[i], id: r.consumed[i]}
	}
	return out
}

func (r *rig) noLeak() {
	r.t.Helper()
	if n := r.pool.Outstanding(); n != 0 {
		r.t.Fatalf("%d frame buffers outstanding", n)
	}
}

// TestHandOffFormsAdmitAlike: the stack may hand a burst over as N Sends,
// as one SendBatch of N, or as N SendBatches of one; whichever it picks,
// the same frames enter the ring in the same order at the same times. The
// N Sends rely on the same-instant FIFO contract stated at queue.land.
func TestHandOffFormsAdmitAlike(t *testing.T) {
	const n = 24
	run := func(hand func(r *rig, now sim.Time)) []admit {
		r := newRig(t)
		now := r.eng.Now()
		r.at(now, func() { hand(r, now) })
		r.cl.Run()
		got := r.admits()
		if len(got) != n {
			t.Fatalf("%d of %d frames admitted", len(got), n)
		}
		for i, a := range got {
			if a.id != uint32(i) || a.at != now+shardHandoff {
				t.Fatalf("admission %d = frame %d at %v, want frame %d at %v", i, a.id, a.at, i, now+shardHandoff)
			}
		}
		r.noLeak()
		return got
	}
	sends := run(func(r *rig, _ sim.Time) {
		for i := 0; i < n; i++ {
			if !r.dev.Send(r.frame(uint32(i))) {
				t.Fatal("Send refused a frame")
			}
		}
	})
	oneBatch := run(func(r *rig, now sim.Time) {
		burst := make([]netstack.TimedFrame, n)
		for i := range burst {
			burst[i] = netstack.TimedFrame{At: now, Frame: r.frame(uint32(i))}
		}
		r.dev.SendBatch(burst)
	})
	batchesOfOne := run(func(r *rig, now sim.Time) {
		for i := 0; i < n; i++ {
			r.dev.SendBatch([]netstack.TimedFrame{{At: now, Frame: r.frame(uint32(i))}})
		}
	})
	if !reflect.DeepEqual(sends, oneBatch) || !reflect.DeepEqual(sends, batchesOfOne) {
		t.Fatalf("hand-off forms disagree:\n%d sends      %v\none batch     %v\nbatches of 1  %v", n, sends, oneBatch, batchesOfOne)
	}
}

// TestStampedBurstNeverEarly: frames handed over ahead of their stamps are
// admitted in order and never before stamp+shardHandoff, the time a
// per-frame post made at the stamp would have landed.
func TestStampedBurstNeverEarly(t *testing.T) {
	const n = 16
	r := newRig(t)
	now := r.eng.Now()
	burst := make([]netstack.TimedFrame, n)
	for i := range burst {
		burst[i] = netstack.TimedFrame{At: now + sim.Time(i)*700*sim.Nanosecond, Frame: r.frame(uint32(i))}
	}
	r.at(now, func() { r.dev.SendBatch(burst) })
	r.cl.Run()
	got := r.admits()
	if len(got) != n {
		t.Fatalf("%d of %d frames admitted", len(got), n)
	}
	for i, a := range got {
		if a.id != uint32(i) {
			t.Fatalf("admission %d is frame %d: order lost", i, a.id)
		}
		if a.at < burst[i].At+shardHandoff {
			t.Fatalf("frame %d admitted at %v, before its stamp %v + hand-off", i, a.at, burst[i].At)
		}
	}
	r.noLeak()
}

// TestSingleFrameKeepsFIFOBehindPending: a one-frame hand-off that lands
// while an earlier burst's tail is still waiting for its stamp queues behind
// it instead of overtaking. Frames 2 and 3 land at one instant and rely on
// the same-instant FIFO contract stated at queue.land.
func TestSingleFrameKeepsFIFOBehindPending(t *testing.T) {
	r := newRig(t)
	now := r.eng.Now()
	late := now + 10*sim.Microsecond
	r.at(now, func() {
		r.dev.SendBatch([]netstack.TimedFrame{
			{At: now, Frame: r.frame(0)},
			{At: late, Frame: r.frame(1)},
		})
	})
	mid := now + 3*sim.Microsecond
	r.cl.RunUntil(mid)
	if r.q.pending.Head() == nil {
		t.Fatal("frame 1 is not pending: the scenario does not test what it claims")
	}
	r.at(mid, func() {
		r.dev.SendBatch([]netstack.TimedFrame{{At: mid, Frame: r.frame(2)}})
		r.dev.Send(r.frame(3))
	})
	r.cl.Run()
	got := r.admits()
	want := []uint32{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("%d of %d frames admitted", len(got), len(want))
	}
	for i, a := range got {
		if a.id != want[i] {
			t.Fatalf("ring order %v, want %v", got, want)
		}
	}
	if got[1].at < late+shardHandoff || got[2].at != got[1].at || got[3].at != got[1].at {
		t.Fatalf("frames 1..3 admitted at %v, %v, %v; want together, no earlier than %v",
			got[1].at, got[2].at, got[3].at, late+shardHandoff)
	}
	r.noLeak()
}

// TestBacklogAndBackendGoneLeakNothing: frames parked in the qdisc backlog
// behind a full ring, and frames still waiting for their stamps, are all
// released when the backend goes away; with a live backend the backlog
// drains into the ring in order.
func TestBacklogAndBackendGoneLeakNothing(t *testing.T) {
	const over, early = 50, 5
	burst := func(r *rig, now sim.Time) []netstack.TimedFrame {
		fs := make([]netstack.TimedFrame, netif.RingSize+over)
		for i := range fs {
			fs[i] = netstack.TimedFrame{At: now, Frame: r.frame(uint32(i))}
		}
		return fs
	}

	r := newRig(t)
	r.consume = false // the backend sits on a full ring
	now := r.eng.Now()
	r.at(now, func() {
		fs := burst(r, now)
		for i := 0; i < early; i++ { // the burst's tail is stamped far ahead
			fs = append(fs, netstack.TimedFrame{At: now + sim.Second, Frame: r.frame(uint32(1000 + i))})
		}
		r.dev.SendBatch(fs)
	})
	r.cl.RunUntil(now + 20*sim.Microsecond)
	if n := r.q.txBacklog.Len(); n != over {
		t.Fatalf("backlog holds %d frames, want %d", n, over)
	}
	if r.q.pending.Head() == nil {
		t.Fatal("no frame is pending")
	}
	if n := r.pool.Outstanding(); n != over+early {
		t.Fatalf("%d buffers outstanding with a full ring, want %d", n, over+early)
	}
	if err := r.bus.SwitchState(r.backPath, xenbus.StateClosing); err != nil {
		t.Fatal(err)
	}
	r.cl.Run()
	if r.dev.Ready() {
		t.Fatal("frontend still ready after its backend closed")
	}
	r.noLeak()
	if r.dev.Send(r.frame(9999)) {
		t.Fatal("Send succeeded without a backend")
	}
	r.noLeak()

	r = newRig(t)
	now = r.eng.Now()
	r.at(now, func() { r.dev.SendBatch(burst(r, now)) })
	r.cl.Run()
	got := r.admits()
	if len(got) != netif.RingSize+over {
		t.Fatalf("%d of %d frames reached the backend", len(got), netif.RingSize+over)
	}
	for i, a := range got {
		if a.id != uint32(i) {
			t.Fatalf("admission %d is frame %d: backlog reordered", i, a.id)
		}
	}
	r.noLeak()
}

// TestQueueSize: every fleet tenant holds one queue, so a ring slot is its
// grant ref (the page and its bytes are the guest's grant entry's) and a
// Tx slot's in-flight flag is one bit: 2,304 B, in the allocator's 2,688 B
// size class. A field per slot shows in every tenant's heap.
func TestQueueSize(t *testing.T) {
	if got := unsafe.Sizeof(queue{}); got != 2304 {
		t.Fatalf("sizeof(queue) = %d, want 2304", got)
	}
}

// TestSendPathOneLine: a single-queue SendBatch and the stack's MAC reads
// touch the device's first 64 bytes alone — its own send fields and the
// ready flag that pvfront.Device keeps first — and the device fills the
// 320 B size class, whose objects start on a cache line.
func TestSendPathOneLine(t *testing.T) {
	var d Device
	if end := unsafe.Offsetof(d.Device) + unsafe.Sizeof(d.Ready()); end > 64 {
		t.Fatalf("the send path ends at byte %d of the device, want within 64", end)
	}
	if got := unsafe.Sizeof(d); got != 320 {
		t.Fatalf("sizeof(Device) = %d, want 320", got)
	}
}

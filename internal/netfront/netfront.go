// Package netfront implements the paravirtual network frontend driver that
// runs inside DomU guests. It exposes the netstack.NetIf interface — the
// guest's network stack uses it exactly like a physical NIC — and speaks
// the netif ring protocol to whatever netback serves it (Linux or Kite;
// the frontend is identical in both cases, which is the paper's point:
// guests need no modification, §2.2). The xenbus handshake, the backend
// watch and teardown are pvfront's; this package supplies the vif's rings,
// keys and data path through its hooks.
//
// Frames arrive and leave as pooled buffers. Grants are persistent in both
// directions: at connect every queue grants one page per ring slot — 256 Tx
// and 256 Rx — to the backend once and reuses page and grant for as long
// as that backend lasts, which lets it keep persistent mappings (§3.3), as
// Linux's xennet_alloc_rx_buffers fills the Rx ring up front. Pages are
// demand-zero, so a page costs host memory only once a frame has been
// through it; the Tx free stack is LIFO, so a tenant sending one frame per
// wave keeps reusing one Tx page.
//
// The transport is multi-queue (xen-netfront's protocol): Tx frames are
// steered by a deterministic RSS Toeplitz hash over the IPv4 4-tuple, so
// each flow stays on one queue and in order; non-IP traffic rides queue 0.
// When the rig runs a sharded cluster (Config.Shards), each queue is pinned
// to one cluster shard and one guest vCPU: its ring work and event channel
// live entirely on that shard, and the only cross-shard traffic is the
// qdisc hand-off from the stack (shard 0) to the queue and the delivery of
// received frames back, both conservative posts riding the guest's softirq
// dispatch latency. A hand-off is one post per burst per queue, the burst
// travelling as its own frames (a framepool.Chain).
package netfront

import (
	"fmt"

	"kite/internal/framepool"
	"kite/internal/mem"
	"kite/internal/netif"
	"kite/internal/netpkt"
	"kite/internal/netstack"
	"kite/internal/pvback"
	"kite/internal/pvfront"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenstore"
)

// txBacklogCap bounds the qdisc backlog (frames) per queue.
const txBacklogCap = 1024

// shardHandoff is the stack<->queue dispatch latency of sharded queues (a
// hand-off to another vCPU's softirq), at least the cluster's lookahead.
const shardHandoff = 2 * sim.Microsecond

// Stats counts frontend activity, aggregated over queues in queue order.
type Stats struct {
	TxFrames, RxFrames uint64
	TxBytes, RxBytes   uint64
	TxRingFull         uint64
	TxErrors           uint64
	// RxErrors counts Rx responses refused: an error status, or a frame
	// that does not fit its page or a frame buffer.
	RxErrors uint64
}

// queue is one Tx/Rx ring pair and its state (Linux's struct
// netfront_queue).
type queue struct {
	d    *Device
	dom  *xen.Domain // the guest, d.Dom: the queue's own hops need not load d
	eng  *sim.Engine // this queue's shard engine (the device engine unsharded)
	cpu  *sim.CPU    // pinned guest vCPU when sharded, nil otherwise
	tx   *netif.TxRing
	rx   *netif.RxRing
	port xen.Port

	// txRefs[id] (id 1..RingSize) and rxRefs[id] are the Tx and Rx pages
	// granted at connect, reused for as long as the backend lasts. A slot
	// is its grant ref and nothing else: the page and its bytes are the
	// guest's own grant entry's (xen.Domain.GrantedPage), and every
	// tenant holds 512 slots. txBusy has bit id set while Tx request id is
	// in flight.
	txRefs [netif.RingSize + 1]xen.GrantRef
	txBusy [netif.RingSize/64 + 1]uint64
	txFree []uint16
	rxRefs [netif.RingSize]xen.GrantRef
	// txBacklog is the per-queue qdisc while the ring is full; reapTx
	// drains it. Each entry holds one buffer reference.
	txBacklog sim.FIFO[*framepool.Buf]

	// landF is the cached cross-shard qdisc hand-off target (land).
	landF func(any)

	// pending holds handed-off Tx frames not yet matured, in hand-off
	// order, stamped (Buf.At) with the time a per-frame post would land.
	pending framepool.Chain
	replay  *sim.Batch

	// gone is set when the queue is released: a hand-off still in flight
	// to it drops its frames on landing.
	gone bool

	stats Stats
}

// Device is one vif frontend instance. Its first fields and the ready flag
// that pvfront.Device puts first are all that a single-queue SendBatch and
// the stack's MAC reads touch, one cache line: queue 0's shard and hand-off
// target are copied in at Queue, so a burst crosses to the queue without
// loading it.
type Device struct {
	eng     *sim.Engine
	rss     *netpkt.RSS // nil with one queue: nothing to steer
	q0eng   *sim.Engine // queue 0's engine
	q0landF func(any)   // queue 0's landF
	mac     netpkt.MAC
	pvfront.Device

	pool     *framepool.Pool
	hashSeed uint64
	queues   []*queue
	shards   []*sim.Engine

	recv   func(frame *framepool.Buf)
	recvF  func(any) // cached post target delivering a frame to the stack
	onDown func()    // carrier loss: the backend disappeared
}

// Config describes a frontend to create.
type Config struct {
	pvfront.Config
	MAC netpkt.MAC
	// Pool supplies frame buffers for the Rx path (nil for a private pool).
	Pool *framepool.Pool
	// HashSeed seeds the RSS hash, shared with the backend through
	// xenstore; 0 selects a deterministic per-device default.
	HashSeed uint64
	// Shards pins queue i to cluster shard Shards[i] on guest vCPU i; the
	// device engine is shard 0 and the guest needs len(Shards)+1 vCPUs.
	// nil runs every queue on the device engine.
	Shards []*sim.Engine
}

// New creates the frontend for a toolstack-created vif and starts the
// handshake.
func New(eng *sim.Engine, cfg Config) *Device {
	pool := cfg.Pool
	if pool == nil {
		pool = framepool.New()
	}
	seed := cfg.HashSeed &^ (1 << 63) // survives the decimal int round trip
	if seed == 0 {
		seed = 0x6b697465<<16 ^ uint64(cfg.Dom.ID)<<8 ^ uint64(cfg.DevID)
	}
	d := &Device{eng: eng, mac: cfg.MAC, pool: pool, hashSeed: seed, shards: cfg.Shards}
	d.recvF = func(a any) {
		if d.recv != nil {
			d.recv(a.(*framepool.Buf))
		}
	}
	d.Start(cfg.Config, xenstore.DevVif, netif.MaxQueues, (*hooks)(d))
	return d
}

// MAC implements netstack.NetIf.
func (d *Device) MAC() netpkt.MAC { return d.mac }

// SetRecv implements netstack.NetIf; fn owns each frame's reference.
func (d *Device) SetRecv(fn func(frame *framepool.Buf)) { d.recv = fn }

// SetOnDown registers the carrier-loss callback, run when the backend goes;
// the stack flushes what can never resolve through it (ARP-pending frames).
func (d *Device) SetOnDown(fn func()) { d.onDown = fn }

// Stats returns the counters aggregated over queues in queue order.
func (d *Device) Stats() Stats {
	var s Stats
	for _, q := range d.queues {
		t := &q.stats
		s = Stats{s.TxFrames + t.TxFrames, s.RxFrames + t.RxFrames, s.TxBytes + t.TxBytes, s.RxBytes + t.RxBytes,
			s.TxRingFull + t.TxRingFull, s.TxErrors + t.TxErrors, s.RxErrors + t.RxErrors}
	}
	return s
}

// hooks is the vif's pvfront.Class: the Device as the handshake sees it.
type hooks Device

// Rings builds one Tx/Rx ring pair per queue, RSS-steered when several.
func (h *hooks) Rings(_ string, nq int) pvback.Channel {
	d := (*Device)(h)
	if len(d.shards) > 0 && (nq > len(d.shards) || d.Dom.CPUs.Len() < nq+1) {
		panic(fmt.Sprintf("netfront: %d sharded queues need as many shards (have %d) and %d guest vCPUs (have %d)",
			nq, len(d.shards), nq+1, d.Dom.CPUs.Len()))
	}
	if nq > 1 {
		rss := netpkt.NewRSS(d.hashSeed)
		d.rss = &rss
	}
	ch := netif.NewChannel(nq)
	d.queues = make([]*queue, nq)
	for i := range d.queues {
		d.queues[i] = &queue{d: d, dom: d.Dom, eng: d.eng, tx: ch.Tx.Queue(i), rx: ch.Rx.Queue(i)}
	}
	return ch
}

// Queue pins a sharded queue i to shard i and guest vCPU i.
func (h *hooks) Queue(i int, port xen.Port) (func(), *sim.CPU) {
	q := h.queues[i]
	if len(h.shards) > 0 {
		q.eng = h.shards[i]
		q.cpu = h.Dom.CPUs.CPU(i)
		q.cpu.SetEngine(q.eng)
		q.replay = sim.NewBatch(q.eng, q.replayPending)
	}
	q.landF = q.land
	q.port = port
	if i == 0 {
		h.q0eng, h.q0landF = q.eng, q.landF
	}
	return q.onEvent, q.cpu
}

// RingRefs writes queue i's ring refs; the RSS seed goes with queue 0's.
func (h *hooks) RingRefs(dir string, i int) {
	st := h.Bus.Store()
	base := h.DevID*2 + 1
	if len(h.queues) > 1 {
		if i == 0 {
			st.Writef(h.FrontPath()+"/"+xenstore.KeyMultiQueueHashSeed, "%d", h.hashSeed)
		}
		base = h.DevID*16 + i*2 + 1
	}
	st.Writef(dir+"/"+xenstore.KeyTxRingRef, "%d", base)
	st.Writef(dir+"/"+xenstore.KeyRxRingRef, "%d", base+1)
}

// Keys writes the vif's MAC and asks for Rx copy.
func (h *hooks) Keys(frontPath string) {
	h.Bus.Store().Write(frontPath+"/"+xenstore.KeyMac, h.mac.String())
	h.Bus.WriteFeature(frontPath, xenstore.KeyRequestRxCopy, true)
}

// Connect grants every queue's Tx and Rx pages and posts the Rx set. The
// arena and grant table are the device shard's, frozen after connect.
func (h *hooks) Connect() {
	d := (*Device)(h)
	d.Dom.ReserveGrants(2 * netif.RingSize * len(d.queues))
	for _, q := range d.queues {
		q.preallocTx()
		for i, page := range d.allocPages(netif.RingSize) {
			q.rxRefs[i] = d.Dom.GrantAccess(d.BackDom, page, false)
		}
	}
	for _, q := range d.queues {
		if q.eng != d.eng {
			// The queue's rings and event channel are owned by its shard:
			// hand the initial Rx post and kick over conservatively.
			d.eng.Post(q.eng, shardHandoff, sim.PriData, func(a any) { a.(*queue).postInitialRx() }, q)
		} else {
			q.postInitialRx()
		}
	}
}

// Lost drops backlogged and pending frames and tells the stack.
func (h *hooks) Lost() {
	for _, q := range h.queues {
		for q.txBacklog.Len() > 0 {
			q.txBacklog.Pop().Release()
		}
		q.dropPending()
	}
	if h.onDown != nil {
		h.onDown()
	}
}

// Release ends every Tx and Rx grant, and drops what is still handed off
// to a queue; a live backend's rings still name a connected vif's pages.
func (h *hooks) Release(live bool) bool {
	if live && len(h.queues) > 0 && h.queues[0].rxRefs[0] != 0 {
		return false
	}
	for _, q := range h.queues {
		q.gone = true
		q.dropPending()
		for _, ref := range q.txRefs[1:] {
			h.EndGrant(ref)
		}
		for _, ref := range q.rxRefs {
			h.EndGrant(ref)
		}
	}
	h.queues, h.rss, h.q0eng, h.q0landF = nil, nil, nil, nil
	return true
}

// postInitialRx posts every Rx buffer and kicks the backend (queue shard).
func (q *queue) postInitialRx() {
	if q.gone {
		return // released within the hand-off
	}
	for i := 0; i < netif.RingSize; i++ {
		if !q.rx.PushRequest(netif.RxRequest{ID: uint16(i), Ref: q.rxRefs[i]}) {
			panic("netfront: fresh rx ring full")
		}
	}
	if q.rx.PushRequestsAndCheckNotify() {
		q.dom.Notify(q.port)
	}
}

// allocPages takes n unbacked pages; running short is a configuration error.
func (d *Device) allocPages(n int) []*mem.Page {
	pages, err := d.Dom.Arena.AllocN(n)
	if err != nil {
		panic(fmt.Sprintf("netfront: %v", err))
	}
	return pages
}

// preallocTx grants every Tx page up front, keeping the send path off the
// arena and the grant table.
func (q *queue) preallocTx() {
	d := q.d
	q.txFree = make([]uint16, 0, netif.RingSize)
	for i, page := range d.allocPages(netif.RingSize) {
		id := netif.RingSize - i
		q.txRefs[id] = d.Dom.GrantAccess(d.BackDom, page, true)
		q.txFree = append(q.txFree, uint16(id))
	}
}

// dropPending releases the hand-off frames that have not been admitted.
func (q *queue) dropPending() {
	for b := q.pending.Pop(); b != nil; b = q.pending.Pop() {
		b.Release()
	}
}

// Send implements netstack.NetIf: steer the frame to its queue by RSS flow
// hash (via the qdisc hand-off post when sharded), copy it into a granted
// page, push a Tx request and kick the backend. Send consumes the caller's
// buffer reference on every path.
//
//kite:hotpath
func (d *Device) Send(frame *framepool.Buf) bool {
	if !d.Ready() {
		frame.Release()
		return false
	}
	q := d.queues[0]
	if d.rss != nil {
		q = d.queues[d.rss.Queue(frame.Bytes(), len(d.queues))]
	}
	if q.eng != d.eng {
		// Cross-shard qdisc hand-off: the queue owns the frame from here.
		// Backpressure is absorbed by the queue's backlog, so the hand-off
		// itself always succeeds.
		frame.At = d.eng.Now() + shardHandoff
		d.eng.Post(q.eng, shardHandoff, sim.PriData, q.landF, frame)
		return true
	}
	return q.enqueue(frame)
}

// BatchCapable implements netstack.BatchSender: batching pays only when
// queues live on other shards.
func (d *Device) BatchCapable() bool { return len(d.shards) > 0 }

// SendBatch implements netstack.BatchSender: steer every frame of the burst
// to its queue, then cross each shard boundary once, the burst travelling
// as its own frames (a framepool.Chain stamped in Buf.At). The queue shard
// admits each at stamp+shardHandoff, when its own per-frame post would have
// landed, so the timeline is that of per-frame posts. Consumes one
// reference per frame on every path.
//
//kite:hotpath
func (d *Device) SendBatch(frames []netstack.TimedFrame) {
	if !d.Ready() {
		for i := range frames {
			frames[i].Frame.Release()
		}
		return
	}
	if d.rss == nil && d.q0eng != d.eng {
		// One queue, on another shard: read from the device alone.
		var burst framepool.Chain
		for i := range frames {
			b := frames[i].Frame
			b.At = frames[i].At + shardHandoff
			burst.Push(b)
		}
		d.handOff(d.q0eng, d.q0landF, burst.Take())
		return
	}
	var stage [netif.MaxQueues]framepool.Chain
	for i := range frames {
		f := &frames[i]
		qi := 0
		if d.rss != nil {
			qi = d.rss.Queue(f.Frame.Bytes(), len(d.queues))
		}
		q := d.queues[qi]
		if q.eng == d.eng {
			q.enqueue(f.Frame)
			continue
		}
		b := f.Frame
		b.At = f.At + shardHandoff
		stage[qi].Push(b)
	}
	for qi, q := range d.queues {
		d.handOff(q.eng, q.landF, stage[qi].Take())
	}
}

// handOff posts a stamped chain to land on a queue's shard when its head's
// own per-frame post would have; an empty chain (nil) posts nothing.
//
//kite:hotpath
func (d *Device) handOff(eng *sim.Engine, land func(any), head *framepool.Buf) {
	if head == nil {
		return
	}
	delay := head.At - d.eng.Now()
	if delay < shardHandoff {
		delay = shardHandoff
	}
	d.eng.Post(eng, delay, sim.PriData, land, head)
}

// land runs on the queue's shard when a hand-off post matures: the chain
// queues behind the pending frames, and replay admits what has matured.
// Same-instant FIFO contract: hand-offs made at one instant land at one
// instant, and their frames reach the ring in hand-off order only because
// the engine runs same-instant events in the order they were posted.
func (q *queue) land(a any) {
	q.pending.Splice(a.(*framepool.Buf))
	if q.gone {
		q.dropPending()
		return
	}
	q.replayPending()
}

// replayPending admits every matured pending frame to the ring, then
// re-arms one doorbell quantum past the head stamp, so each fire admits a
// quantum's worth (xmit_more/IRQ coalescing across shards). No frame is
// admitted before its stamp; the price is up to one quantum of latency.
func (q *queue) replayPending() {
	now := q.eng.Now()
	for h := q.pending.Head(); h != nil && h.At <= now; h = q.pending.Head() {
		q.enqueue(q.pending.Pop())
	}
	if h := q.pending.Head(); h != nil {
		q.replay.Arm(h.At + shardHandoff)
	}
}

// enqueue pushes a frame into the ring (or the backlog while it is full)
// and kicks the backend, on the queue's shard.
func (q *queue) enqueue(frame *framepool.Buf) bool {
	if frame.Len() > mem.PageSize {
		q.stats.TxErrors++
		frame.Release()
		return false
	}
	if q.tx.Full() {
		if q.txBacklog.Len() >= txBacklogCap {
			q.stats.TxRingFull++
			frame.Release()
			return false
		}
		q.txBacklog.Push(frame)
		return true
	}
	if !q.pushTx(frame) {
		return false
	}
	if q.tx.PushRequestsAndCheckNotify() {
		q.dom.Notify(q.port)
	}
	return true
}

// pushTx copies a frame into a free Tx slot's page and pushes its request,
// consuming the reference; the caller batches the notify check. The grant
// is gone only once the guest's own domain is (work it scheduled before
// its death still runs): the frame is then dropped.
func (q *queue) pushTx(frame *framepool.Buf) bool {
	n := len(q.txFree)
	var page *mem.Page
	if n > 0 {
		page = q.dom.GrantedPage(q.txRefs[q.txFree[n-1]])
	}
	if page == nil {
		q.stats.TxErrors++
		frame.Release()
		return false
	}
	id := q.txFree[n-1]
	q.txFree = q.txFree[:n-1]
	size := frame.Len() // at most mem.PageSize: enqueue checked
	copy(page.Bytes(), frame.Bytes())
	q.txBusy[id/64] |= 1 << (id % 64)
	frame.Release()
	q.tx.PushRequest(netif.TxRequest{ID: id, Ref: q.txRefs[id], Offset: 0, Len: uint16(size)})
	q.stats.TxFrames++
	q.stats.TxBytes += uint64(size)
	return true
}

// onEvent is the queue's interrupt handler.
//
//kite:hotpath
func (q *queue) onEvent() {
	q.reapTx()
	q.reapRx()
}

func (q *queue) reapTx() {
	defer q.drainBacklog()
	for {
		rsp, ok := q.tx.TakeResponse()
		if !ok {
			if q.tx.FinalCheckForResponses() {
				continue
			}
			return
		}
		if rsp.ID == 0 || int(rsp.ID) > netif.RingSize {
			continue // backend answered an unknown id; ignore
		}
		busy := &q.txBusy[rsp.ID/64]
		bit := uint64(1) << (rsp.ID % 64)
		if *busy&bit == 0 {
			continue
		}
		// The slot's page and grant persist; only the id is recycled.
		*busy &^= bit
		q.txFree = append(q.txFree, rsp.ID)
		if rsp.Status != netif.StatusOK {
			q.stats.TxErrors++
		}
	}
}

func (q *queue) reapRx() {
	d := q.d
	posted := 0
	for {
		rsp, ok := q.rx.TakeResponse()
		if !ok {
			if q.rx.FinalCheckForResponses() {
				continue
			}
			break
		}
		ref := q.rxRefs[rsp.ID%netif.RingSize]
		// The backend is untrusted: bound its offset and length in int,
		// where Offset+Len cannot wrap as it would in 16 bits.
		off, n := int(rsp.Offset), int(rsp.Len)
		if rsp.Status != netif.StatusOK || n == 0 || n > framepool.MaxFrame || off+n > mem.PageSize {
			q.stats.RxErrors++
		} else {
			q.stats.RxFrames++
			q.stats.RxBytes += uint64(n)
			if d.recv != nil {
				b := d.pool.GetLen(n)
				// The grant lives as long as the queue's port does.
				copy(b.Extend(n), q.dom.GrantedPage(ref).Bytes()[off:off+n])
				if q.eng != d.eng {
					// Deliver to the stack's shard (softirq dispatch).
					q.eng.Post(d.eng, shardHandoff, sim.PriData, d.recvF, b)
				} else {
					d.recv(b)
				}
			}
		}
		// Recycle the same granted page (Linux netfront's page reuse).
		if d.Ready() && q.rx.PushRequest(netif.RxRequest{ID: rsp.ID, Ref: ref}) {
			posted++
		}
	}
	if posted > 0 && q.rx.PushRequestsAndCheckNotify() {
		q.dom.Notify(q.port)
	}
}

// drainBacklog pushes queued qdisc frames into freed ring slots.
func (q *queue) drainBacklog() {
	pushed := false
	for q.txBacklog.Len() > 0 && !q.tx.Full() {
		if q.pushTx(q.txBacklog.Pop()) {
			pushed = true
		}
	}
	if pushed && q.tx.PushRequestsAndCheckNotify() {
		q.dom.Notify(q.port)
	}
}

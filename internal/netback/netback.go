// Package netback implements the network backend driver of a driver
// domain — the component Kite had to build from scratch (Table 1, 2791
// LOC). Each VIF instance serves one netfront: the Tx path drains
// guest-originated frames to the bridge via a dedicated *pusher* thread,
// and the Rx path copies bridge-delivered frames into posted guest buffers
// via a dedicated *soft_start* thread, so the event handler itself never
// monopolizes the CPU (§3.2, §4.2). Two cost profiles exist: KiteCosts
// (rumprun threads) and LinuxCosts (softirq + kthread path).
//
// Frames move through pooled buffers end to end: guest Tx frames are
// grant-copied straight into a framepool.Buf handed to the bridge, and
// bridge-delivered Rx frames are copied from their Buf into guest-posted
// pages — through a persistent-grant mapping cache mirroring blkback §3.3,
// so steady-state Rx skips the per-burst hypercall entirely.
//
// A VIF is sharded per negotiated queue, like multi-queue xen-netback: one
// pusher + one soft_start per queue, pinned to distinct vCPUs of the
// driver domain, each with its own persistent-grant cache, pending queues
// and drain state (scratch slices, bridge carrier), so dedicated-worker
// queues share nothing but the frame pool on the hot path. Guest-bound
// frames are steered with the same seeded RSS hash the frontend uses, so
// both directions of a flow ride one queue.
//
// Fleet mode is the deliberate exception: the single-queue VIFs of one
// service lane (pvback.Lane) are served one after another by one worker, so
// they share the lane's drain state by design — one set of scratch slices
// and one bridge carrier per lane, however many tenants it serves. Only
// what is a tenant's by nature (rings, event channel, persistent-grant
// cache, guest-bound backlog, counters) stays per VIF.
//
// Under a sharded cluster each queue additionally runs on its own cluster
// shard (the same shard as its frontend peer, so the ring pair has a single
// owner): workers, event channel and grant copies all live there, and the
// only cross-shard traffic is the matured-frame hand-off to the bridge and
// the bridge's guest-bound delivery — conservative posts at the bridge
// hand-off latency.
package netback

import (
	"fmt"
	"strconv"

	"kite/internal/bridge"
	"kite/internal/framepool"
	"kite/internal/mem"
	"kite/internal/netif"
	"kite/internal/netpkt"
	"kite/internal/pvback"
	"kite/internal/sim"
	"kite/internal/xen"
)

// shardHandoff is the queue<->bridge dispatch latency when queues are
// pinned to cluster shards; it doubles as the posts' conservative lookahead
// bound, so it must be at least the cluster's lookahead.
const shardHandoff = 2 * sim.Microsecond

// A Tx request that stays inside its granted page fits a frame buffer: the
// Tx bound check relies on it, and this fails to compile if it stops holding.
const _ uint = framepool.MaxFrame - mem.PageSize

// RxQueueFrames bounds each queue's guest-bound queue; overflow drops
// (this is where UDP overload loss materializes).
const RxQueueFrames = 2048

// Costs parameterizes the backend's software path per OS.
type Costs struct {
	PerPacketTx sim.Time // guest→world processing per frame (beyond copies)
	PerPacketRx sim.Time // world→guest processing per frame (beyond copies)
	WakeLatency sim.Time // handler→worker-thread dispatch latency
}

// KiteCosts returns the rumprun backend profile: cheap cooperative thread
// wakeups, lean NetBSD driver path.
func KiteCosts() Costs {
	return Costs{
		// Per-frame path tuned so a single-vCPU domain forwards ~7.3 Gbps
		// of MTU frames — the bottleneck Figure 6 measures.
		PerPacketTx: 450 * sim.Nanosecond,
		PerPacketRx: 450 * sim.Nanosecond,
		WakeLatency: 2 * sim.Microsecond,
	}
}

// LinuxCosts returns the Ubuntu driver-domain profile: softirq + kthread
// scheduling on the wake path and a heavier per-frame path (netfilter
// hooks, qdisc, skb management).
func LinuxCosts() Costs {
	return Costs{
		PerPacketTx: 470 * sim.Nanosecond,
		PerPacketRx: 470 * sim.Nanosecond,
		WakeLatency: 9 * sim.Microsecond,
	}
}

// Stats counts per-VIF activity.
type Stats struct {
	TxFrames, TxBytes uint64 // guest -> world
	RxFrames, RxBytes uint64 // world -> guest
	RxQueueDrops      uint64
	RxNoBufDrops      uint64
	TxErrors          uint64
	// RxPersistHits/Misses count Rx grant resolutions served from /
	// added to the persistent mapping cache.
	RxPersistHits   uint64
	RxPersistMisses uint64
}

// VIF is one netback instance: the virtual interface paired with exactly
// one netfront (§3.2: one instance per virtual channel), sharded into the
// negotiated number of queues.
type VIF struct {
	eng      *sim.Engine
	dom      *xen.Domain // the driver domain
	frontDom xen.DomID
	name     string
	costs    Costs
	pool     *framepool.Pool

	ch     *netif.Channel
	br     *bridge.Bridge
	queues []*vifQueue
	rss    *netpkt.RSS // nil with one queue: nothing to steer

	dead bool
	down bool // administratively down (ifconfig vifX.Y down)
	// inHandler processes rings inside the event handler itself instead of
	// waking the worker threads — the design the paper rejects (§3.2);
	// kept as an ablation switch (SetInHandler).
	inHandler bool
}

// vifQueue is one queue's shard: its ring pair, event channel, worker
// threads pinned to one vCPU and persistent-grant cache — nothing here is
// shared with other queues except, between the members of one fleet lane,
// the drain state.
type vifQueue struct {
	v       *VIF
	id      int
	eng     *sim.Engine // this queue's shard engine (the VIF engine unsharded)
	sharded bool
	tx      *netif.TxRing
	rx      *netif.RxRing
	port    xen.Port
	cpu     *sim.CPU
	// dead is the VIF's dead flag, copied at Shutdown so that a doorbell
	// (onEvent) reads the queue alone.
	dead bool

	// rxEnqueueF is the cached cross-shard post target for guest-bound
	// frames steered to this queue by Deliver.
	rxEnqueueF func(any)

	pusher    *sim.Task
	softStart *sim.Task

	// lane is non-nil in fleet mode: the queue has no dedicated worker
	// threads and is served by its lane's DRR rounds instead (Serve, Flush).
	// laneSlot addresses the queue's round state (deficit, ring links,
	// owed doorbell) in the lane's member slab.
	lane     *pvback.Lane
	laneSlot int32

	rxQueue sim.FIFO[*framepool.Buf]

	// pgrants caches mappings of the frontend's Rx grant refs (which the
	// frontend recycles for the device's lifetime).
	pgrants pvback.GrantCache

	// ds is the drain state the queue's drains run on: its own for a
	// dedicated-worker queue, its lane's for a fleet member.
	ds *drainState

	// txPending holds bridge-bound frames whose hypervisor copy has been
	// issued until the copy matures. Unsharded only: a sharded drain
	// stages into ds's carrier instead.
	txPending *sim.Line[*framepool.Buf]

	stats Stats
}

// timedFrame is a carrier entry: a frame due for bridge input at a virtual
// time, holding one buffer reference. from names the source VIF (a lane's
// carrier mixes tenants).
type timedFrame struct {
	at    sim.Time
	frame *framepool.Buf
	from  *VIF
}

// drainState is what a ring drain needs beyond the rings it serves: the
// request/op/buffer scratch and (sharded) the carrier taking matured frames
// to the bridge. None of it is a tenant's by nature. A dedicated-worker
// queue owns one; the members of a service lane share their lane's — a DRR
// round serves them one after another on one vCPU, so no two tenants ever
// use it at once, and a copy per tenant would only spread the round's
// working set over as many cache lines (and cross-shard posts) as there are
// tenants.
type drainState struct {
	eng *sim.Engine // owning shard (the VIF engine unsharded)
	dev *sim.Engine // the bridge's shard

	// Reusable batch scratch (zero steady-state allocations per burst).
	// A batch holds at most a ring's worth of requests, so txReqs, ops and
	// bufs, made with a ring's capacity, never grow; rxReqs and rxCopied
	// grow once to the Rx high-water mark, and the drain stores them back.
	txReqs []netif.TxRequest
	rxReqs []netif.RxRequest
	ops    []xen.CopyOp
	bufs   []*framepool.Buf
	// rxCopied[i] is set when Rx request i of the batch is served by a
	// grant copy rather than through its persistent mapping.
	rxCopied []bool

	// Sharded, matured frames ride to the bridge in txBatch carriers: one
	// cross-shard post per pusher haul or per lane round, each entry
	// stamped with its true bridge-arrival time (see inputBatch). txOut is
	// the carrier being filled; txOutFree recycles the carriers inputBatch
	// has consumed.
	txOut     *txBatch
	txOutFree []*txBatch
	inputF    func(any)

	// brLane is the pinned forwarding lane on the bridge (one forwarding
	// vCPU + egress FIFO per drain state), which is what makes the
	// one-post replay time-exact: the lane has a single producer — one
	// queue, or one lane's members charging one vCPU in execution order —
	// with monotone arrival times.
	brLane *bridge.Lane
}

// newDrainState builds the drain state of one queue or lane homed on eng,
// handing frames to the bridge on dev (sharded when brLane is non-nil).
func newDrainState(eng, dev *sim.Engine, brLane *bridge.Lane) *drainState {
	ds := &drainState{
		eng: eng, dev: dev, brLane: brLane,
		txReqs: make([]netif.TxRequest, 0, netif.RingSize),
		ops:    make([]xen.CopyOp, 0, netif.RingSize),
		bufs:   make([]*framepool.Buf, 0, netif.RingSize),
	}
	ds.inputF = ds.inputBatch
	return ds
}

// txBatch carries one pusher haul's — or one lane round's — guest frames to
// the bridge shard as a single conservative post. Entries are stamped with
// each frame's true bridge-arrival time (copy maturity + hand-off latency,
// nondecreasing within a carrier), and the bridge replays them through
// InputAt, so the one-post execution reproduces the exact per-frame
// timeline. A consumed carrier goes straight back on the drain state's free
// list.
type txBatch struct {
	entries []timedFrame
}

// stageTx appends one matured frame to the carrier being filled, drawing a
// carrier from the free list first if none is open; the steady state
// recycles the in-flight high-water set and never allocates.
func (ds *drainState) stageTx(from *VIF, at sim.Time, frame *framepool.Buf) {
	if ds.txOut == nil {
		if n := len(ds.txOutFree); n > 0 {
			ds.txOut = ds.txOutFree[n-1]
			ds.txOutFree = ds.txOutFree[:n-1]
		} else {
			ds.txOut = &txBatch{entries: make([]timedFrame, 0, netif.RingSize)} //kite:alloc-ok carrier set grows to the in-flight high-water mark, then recycles
		}
	}
	ds.txOut.entries = append(ds.txOut.entries, timedFrame{at: at, frame: frame, from: from}) //kite:alloc-ok entries grow to the haul high-water mark, then recycle
}

// postTx sends the open carrier, if any, to the bridge shard: one
// conservative post maturing at the first frame's arrival; InputAt replays
// the rest at their stamped times. Every stamp is a charge completion plus
// shardHandoff, so the delay keeps the lookahead bound. A lane calls it as
// its end-of-round hook, through a function value the analyzer does not
// follow — hence a hot root of its own.
//
//kite:hotpath
func (ds *drainState) postTx() {
	if ds.txOut == nil {
		return
	}
	ds.eng.Post(ds.dev, ds.txOut.entries[0].at-ds.eng.Now(), sim.PriData, ds.inputF, ds.txOut)
	ds.txOut = nil
}

// inputBatch replays one carrier's frames into the bridge at their stamped
// arrival times, then puts the emptied carrier back on the free list. A
// frame whose VIF was torn down while the carrier was in flight is dropped:
// its port has left the bridge. Runs on the device shard.
func (ds *drainState) inputBatch(a any) {
	bt := a.(*txBatch)
	for i := range bt.entries {
		e := &bt.entries[i]
		if e.from.dead {
			e.frame.Release()
		} else {
			ds.brLane.InputAt(e.from, e.frame, e.at)
		}
		*e = timedFrame{}
	}
	bt.entries = bt.entries[:0]
	ds.txOutFree = append(ds.txOutFree, bt)
}

// newVIF creates the connected netback instance for pairing p, whose
// per-queue ring refs and event channels the driver has already read from
// xenstore: here the ring pages are mapped (hypercalls charged), event
// channels are bound, and each queue gets its worker. With a nil p.Lane
// every queue gets dedicated pusher/soft_start threads, pinned round-robin
// across the driver domain's vCPUs from the frontend's home CPU, or queue i
// to vCPU i on shard i when the driver is sharded; rssSeed is the
// frontend's published steering seed (ignored for one queue). With a fleet
// lane the (single) queue lives on the lane's shard and vCPU, drains on the
// lane's drain state, its doorbell joins the lane's demux group, and the
// lane's DRR rounds drain its rings: this is how one driver domain serves
// hundreds of guests with a fixed number of worker threads.
func (d *Driver) newVIF(p pvback.Pairing, ch *netif.Channel, rssSeed uint64) (*VIF, error) {
	nq := ch.NumQueues()
	lane := p.Lane
	sharded := lane == nil && len(d.shards) > 0
	switch {
	case lane != nil && nq != 1:
		return nil, fmt.Errorf("netback: vif%d.%d: fleet lanes serve single-queue frontends (%d queues)",
			p.FrontDom, p.DevID, nq)
	case sharded && (nq > len(d.shards) || d.dom.CPUs.Len() < nq+1):
		return nil, fmt.Errorf("netback: vif%d.%d: %d queues need %d shards and %d vCPUs (have %d, %d)",
			p.FrontDom, p.DevID, nq, nq, nq+1, len(d.shards), d.dom.CPUs.Len())
	case len(p.Ports) != nq:
		return nil, fmt.Errorf("netback: vif%d.%d: %d event channels for %d queues",
			p.FrontDom, p.DevID, len(p.Ports), nq)
	}
	v := &VIF{
		eng:      d.eng,
		dom:      d.dom,
		frontDom: p.FrontDom,
		// strconv, not fmt.Sprintf: this runs at the deepest point of the
		// connect handshake, where fmt's frames grew the goroutine's stack
		// on every rig build.
		name:   "vif" + strconv.Itoa(int(p.FrontDom)) + "." + strconv.Itoa(p.DevID),
		costs:  d.costs,
		pool:   d.pool,
		ch:     ch,
		br:     d.br,
		queues: make([]*vifQueue, nq),
	}
	if nq > 1 {
		v.rss = netpkt.NewRSS(rssSeed)
	}
	// Map every queue's two ring pages (2 map hypercalls per queue, charged
	// to the backend: on the lane's vCPU in fleet mode — the lane owns this
	// tenant's hypercall work end to end — and on the misc vCPU when the
	// queue vCPUs are pinned).
	mapCost := d.dom.Hypervisor().Costs.Base +
		sim.Time(2*nq)*d.dom.Hypervisor().Costs.GrantMapPage
	switch {
	case lane != nil:
		lane.CPU().Charge(mapCost)
	case sharded:
		d.dom.CPUs.CPU(d.dom.CPUs.Len() - 1).Charge(mapCost)
	default:
		d.dom.CPUs.Charge(mapCost)
	}

	for i := 0; i < nq; i++ {
		q := &vifQueue{
			v:       v,
			id:      i,
			eng:     d.eng,
			sharded: lane != nil || sharded,
			tx:      ch.Tx.Queue(i),
			rx:      ch.Rx.Queue(i),
		}
		// Per-queue workers spread across the domain's vCPUs (§3.1:
		// multicore driver domains scale to several guests/NICs; with
		// multi-queue, to several queues of one guest). Sharded, queue i is
		// pinned to vCPU i on shard i — the same shard as its frontend peer,
		// so each ring pair has exactly one owning shard.
		switch {
		case lane != nil:
			q.ds, q.lane, q.cpu = d.laneDS[lane.ID()], lane, lane.CPU()
			q.eng = q.ds.eng
		case sharded:
			q.eng = d.shards[i]
			q.cpu = d.dom.CPUs.CPU(i)
			q.cpu.SetEngine(q.eng)
			// Forwarding thread for this queue: vCPU nq+i of the driver
			// domain (the width beyond the queue workers), degrading to the
			// last vCPU when the domain is narrower.
			fwd := min(nq+i, d.dom.CPUs.Len()-1)
			q.ds = newDrainState(q.eng, d.eng, d.br.NewLane(d.dom.CPUs.CPU(fwd)))
		default:
			q.cpu = d.dom.CPUs.CPU((int(p.FrontDom) + i) % d.dom.CPUs.Len())
			q.ds = newDrainState(d.eng, d.eng, nil)
		}
		q.rxEnqueueF = func(a any) { q.rxEnqueue(a.(*framepool.Buf)) }
		port, err := d.dom.BindInterdomain(p.FrontDom, p.Ports[i])
		if err != nil {
			return nil, fmt.Errorf("netback: %s: %w", v.name, err)
		}
		q.port = port
		q.txPending = sim.NewLine(q.eng, q.toBridge)
		v.queues[i] = q
		if err := d.dom.SetHandler(port, q.onEvent); err != nil {
			return nil, err
		}
		if lane != nil {
			if q.laneSlot, err = lane.Join(q.port, q); err != nil {
				return nil, fmt.Errorf("netback: %s: %w", v.name, err)
			}
			continue
		}
		if sharded {
			d.dom.BindPortCPU(q.port, q.cpu)
		}
		q.pusher = sim.NewTask(q.eng, q.cpu, d.costs.WakeLatency, q.drainTx)
		q.softStart = sim.NewTask(q.eng, q.cpu, d.costs.WakeLatency, q.drainRx)
	}
	return v, nil
}

// Lane returns the fleet service lane serving the VIF, or nil for a
// dedicated-worker instance.
func (v *VIF) Lane() *pvback.Lane { return v.queues[0].lane }

// FrontDom returns the tenant guest's domain ID.
func (v *VIF) FrontDom() xen.DomID { return v.frontDom }

// Name returns the VIF name (vif<dom>.<dev>).
func (v *VIF) Name() string { return v.name }

// PortName implements bridge.Port.
func (v *VIF) PortName() string { return v.name }

// NumQueues returns the queue count.
func (v *VIF) NumQueues() int { return len(v.queues) }

// Stats aggregates the per-queue counters in queue order, so totals are
// identical however queue work interleaved.
func (v *VIF) Stats() Stats {
	var s Stats
	for _, q := range v.queues {
		s.TxFrames += q.stats.TxFrames
		s.TxBytes += q.stats.TxBytes
		s.RxFrames += q.stats.RxFrames
		s.RxBytes += q.stats.RxBytes
		s.RxQueueDrops += q.stats.RxQueueDrops
		s.RxNoBufDrops += q.stats.RxNoBufDrops
		s.TxErrors += q.stats.TxErrors
		s.RxPersistHits += q.stats.RxPersistHits
		s.RxPersistMisses += q.stats.RxPersistMisses
	}
	return s
}

// QueueStats returns queue i's counters.
func (v *VIF) QueueStats(i int) Stats { return v.queues[i].stats }

// SetInHandler toggles the in-handler processing ablation on a live VIF.
func (v *VIF) SetInHandler(on bool) { v.inHandler = on }

// SetUp sets the interface's administrative state (ifconfig up/down): a
// downed VIF forwards no traffic in either direction.
func (v *VIF) SetUp(up bool) { v.down = !up }

// Up reports the administrative state.
func (v *VIF) Up() bool { return !v.down }

// PusherRuns exposes thread activity for the threaded-model ablation,
// summed over queues.
func (v *VIF) PusherRuns() (wakes, runs uint64) {
	for _, q := range v.queues {
		if q.pusher == nil {
			continue // fleet mode: the lane worker serves this queue
		}
		wakes += q.pusher.Wakes()
		runs += q.pusher.Runs()
	}
	return wakes, runs
}

// Shutdown quiesces the instance (backend teardown or domain restart):
// queued frames are released, persistent Rx mappings are unmapped.
func (v *VIF) Shutdown() {
	if v.dead {
		return
	}
	v.dead = true
	for _, q := range v.queues {
		q.dead = true
		if q.lane != nil {
			q.lane.Detach(q.port, q.laneSlot)
		}
		_ = v.dom.Close(q.port)
		for q.rxQueue.Len() > 0 {
			q.rxQueue.Pop().Release()
		}
		for q.txPending.Len() > 0 {
			_, frame := q.txPending.Pop()
			frame.Release()
		}
		q.pgrants.Drain(v.dom)
	}
}

// onEvent is the queue's frontend-notification handler. Per the paper's
// design it only wakes the queue's worker threads — unless the InHandler
// ablation is active, in which case the rings are drained right here,
// blocking further notifications for the duration.
//
//kite:hotpath
func (q *vifQueue) onEvent() {
	if q.dead {
		return
	}
	if q.lane != nil {
		// Fleet mode: no dedicated threads — put the queue into its lane's
		// DRR round if the doorbell brought actionable work.
		if q.tx.RequestAvailable() || (q.rxQueue.Len() > 0 && q.rx.RequestAvailable()) {
			q.lane.Activate(q.laneSlot)
		}
		return
	}
	if q.v.inHandler {
		q.drainTx()
		q.drainRx()
		return
	}
	if q.tx.RequestAvailable() {
		q.pusher.Wake()
	}
	if q.rxQueue.Len() > 0 && q.rx.RequestAvailable() {
		q.softStart.Wake()
	}
}

// drainTx is the pusher thread body: move guest frames to the bridge, one
// carrier post for the haul when sharded.
func (q *vifQueue) drainTx() {
	q.drainTxBudget(pvback.Unlimited)
	q.ds.postTx()
}

// Serve implements pvback.Member: a lane round serves the queue's Tx ring,
// then its Rx backlog against whatever byte deficit Tx left.
func (q *vifQueue) Serve(deficit int) (used int, more bool) {
	used, more = q.drainTxBudget(deficit)
	rxUsed, rxMore := q.drainRxBudget(max(deficit-used, 0))
	return used + rxUsed, more || rxMore
}

// Flush implements pvback.Member: the one completion doorbell a round owes
// the frontend, however many drain calls asked for it (notifyFront).
func (q *vifQueue) Flush() { q.v.dom.Notify(q.port) }

// drainTxBudget moves guest frames to the bridge, stopping once budget
// bytes have been taken from the ring (the last frame may overshoot — DRR
// serves a packet while credit remains). Each frame is grant-copied once,
// directly into a pooled buffer that then travels the bridge/NAT/NIC path.
// Per-frame processing is charged to this queue's pinned vCPU, which is
// what lets queues overlap in time. Sharded, matured frames are staged in
// the drain state's carrier, which the caller posts (per haul, or — the
// lane's end-of-round hook — per round). Returns the bytes consumed and whether requests remain because
// the budget — not the ring — ran out.
func (q *vifQueue) drainTxBudget(budget int) (used int, more bool) {
	v, ds := q.v, q.ds
	if v.dead || v.down {
		return 0, false
	}
	hv := v.dom.Hypervisor()
	for {
		// Gather a batch of requests into the reusable scratch.
		reqs := ds.txReqs[:0]
		for used < budget {
			req, ok := q.tx.TakeRequest()
			if !ok {
				break
			}
			reqs = append(reqs, req)
			if req.Len > 0 {
				used += int(req.Len)
			} else {
				used++ // malformed requests still consume a slot of credit
			}
		}
		if len(reqs) == 0 {
			if used >= budget {
				more = q.tx.RequestAvailable()
				break
			}
			if q.tx.FinalCheckForRequests() {
				continue
			}
			break
		}
		// One batched hypervisor copy for the whole run of requests, each
		// landing in its own pooled buffer sized to it. bufs[i] is nil for a
		// request refused up front, as Linux netback refuses it: one shorter
		// than an Ethernet header, or one whose bytes leave its granted
		// page, which netif.h forbids and which also bounds it by a frame
		// buffer. The bound is computed in int, where a hostile Offset+Len
		// cannot wrap.
		ops := ds.ops[:0]
		bufs := ds.bufs[:0]
		for _, req := range reqs {
			off, n := int(req.Offset), int(req.Len)
			if n < netpkt.EthHeaderLen || off+n > mem.PageSize {
				bufs = append(bufs, nil)
				continue
			}
			b := v.pool.GetLen(n)
			ops = append(ops, xen.CopyOp{
				Src: xen.CopyPtr{Dom: v.frontDom, Ref: req.Ref, Offset: off},
				Dst: xen.CopyPtr{Data: b.Extend(n)},
				Len: n,
			})
			bufs = append(bufs, b)
		}
		_ = q.copyGrant(hv, ops) // every op carries its own status, read below
		// Charge per frame so maturities spread across the haul: frame k is
		// ready after k+1 packet costs, not when the whole batch retires.
		// Lumping the charge would stall the bridge (and the next upcall,
		// which waits for the vCPU to drain) behind the full haul. Each
		// request is answered by its own op's status.
		op := 0
		for i, req := range reqs {
			done := q.cpu.Charge(v.costs.PerPacketTx)
			status := int8(netif.StatusOK)
			b := bufs[i]
			if b != nil {
				if ops[op].Status != xen.CopyOkay {
					b.Release()
					b = nil
				}
				op++
			}
			if b == nil {
				status = netif.StatusError
				q.stats.TxErrors++
			} else {
				q.stats.TxFrames++
				q.stats.TxBytes += uint64(req.Len)
				if q.sharded {
					// Stage the frame in the carrier, stamped with its
					// bridge-arrival time; the caller's one post moves it.
					ds.stageTx(v, done+shardHandoff, b)
				} else {
					q.txPending.Push(done, b)
				}
			}
			q.tx.PushResponse(netif.TxResponse{ID: req.ID, Status: status})
		}
		clearBufs(bufs)
		if q.tx.PushResponsesAndCheckNotify() {
			q.notifyFront()
		}
	}
	return used, more
}

// notifyFront raises the frontend's completion doorbell. Dedicated-worker
// queues notify immediately; a lane-served queue instead marks its member
// slot so the round flushes one batched notification per member at the
// end, however many drain calls owed one.
//
//kite:hotpath
func (q *vifQueue) notifyFront() {
	if q.lane != nil {
		q.lane.Owe(q.laneSlot)
		return
	}
	q.v.dom.Notify(q.port)
}

// clearBufs zeroes the recycled scratch slots so the scratch slice does not
// pin buffers that have already been handed off or released.
func clearBufs(bufs []*framepool.Buf) {
	for i := range bufs {
		bufs[i] = nil
	}
}

// toBridge hands one matured guest frame to the bridge. Shutdown empties
// the line, so a frame reaches here only while the VIF is alive.
func (q *vifQueue) toBridge(_ sim.Time, frame *framepool.Buf) {
	q.v.br.Input(q.v, frame)
}

// copyGrant issues the batched hypervisor copy, charging the queue's pinned
// vCPU when sharded. The cluster runs in exact global order, so a pool-level
// pick would see every vCPU's busy-until mark where the timeline has it; the
// pinned charge stays because the pool pick would move the model.
func (q *vifQueue) copyGrant(hv *xen.Hypervisor, ops []xen.CopyOp) error {
	if q.sharded {
		return hv.CopyGrantOn(q.v.dom, q.cpu, ops)
	}
	return hv.CopyGrant(q.v.dom, ops)
}

// Deliver implements bridge.Port: steer a guest-bound frame to its queue
// with the shared RSS hash (so a flow's two directions use one queue),
// queue it there (consuming the bridge's reference), and wake that queue's
// soft_start thread.
//
//kite:hotpath
func (v *VIF) Deliver(frame *framepool.Buf) {
	if v.dead || v.down {
		frame.Release()
		return
	}
	q := v.queues[0]
	if v.rss != nil {
		q = v.queues[v.rss.Queue(frame.Bytes(), len(v.queues))]
	}
	if q.sharded {
		// A flooded frame crosses with its sharing intact, one reference
		// per egress port: the Rx path only reads it (§7.3 — a shared
		// buffer is read-only) and the last Release recycles it on
		// whichever shard that happens.
		v.eng.Post(q.eng, shardHandoff, sim.PriData, q.rxEnqueueF, frame)
		return
	}
	q.rxEnqueue(frame)
}

// rxEnqueue queues one guest-bound frame on the queue's shard and wakes its
// soft_start thread, consuming the reference (dropping when over bound).
func (q *vifQueue) rxEnqueue(frame *framepool.Buf) {
	v := q.v
	if v.dead || v.down {
		frame.Release()
		return
	}
	if q.rxQueue.Len() >= RxQueueFrames {
		q.stats.RxQueueDrops++
		frame.Release()
		return
	}
	q.rxQueue.Push(frame)
	if q.lane != nil {
		q.lane.Activate(q.laneSlot)
		return
	}
	if v.inHandler {
		q.drainRx()
		return
	}
	q.softStart.Wake()
}

// drainRx is the soft_start thread body: copy queued frames into posted
// guest Rx buffers, preferring the persistent mapping cache.
func (q *vifQueue) drainRx() { q.drainRxBudget(pvback.Unlimited) }

// drainRxBudget copies queued guest-bound frames into posted Rx buffers,
// stopping once budget bytes have been delivered (last frame may
// overshoot). Returns bytes consumed and whether deliverable work remains
// only because the budget ran out — a backlog stalled on missing guest
// buffers is not "more": the frontend's next buffer post raises an event
// that reactivates the queue.
func (q *vifQueue) drainRxBudget(budget int) (used int, more bool) {
	v, ds := q.v, q.ds
	if v.dead {
		return 0, false
	}
	hv := v.dom.Hypervisor()
	notify := false
	for q.rxQueue.Len() > 0 && used < budget {
		batch := ds.bufs[:0]
		reqs := ds.rxReqs[:0]
		for q.rxQueue.Len() > 0 && used < budget {
			req, ok := q.rx.TakeRequest()
			if !ok {
				break
			}
			reqs = append(reqs, req)
			frame := q.rxQueue.Pop()
			batch = append(batch, frame)
			if n := frame.Len(); n > 0 {
				used += n
			} else {
				used++
			}
		}
		ds.rxReqs = reqs[:0]
		if len(reqs) == 0 {
			// No posted buffers. Re-arm the request event threshold before
			// sleeping, or the frontend's next buffer post would suppress
			// its notification and strand the queued frames forever.
			if q.rx.FinalCheckForRequests() {
				continue
			}
			break
		}
		// Copy each frame into its guest page: through the persistent
		// mapping when cached (plain memcpy), falling back to a batched
		// grant copy for a ref that cannot be mapped.
		ops := ds.ops[:0]
		copied := ds.rxCopied[:0]
		var memcpyBytes int
		for i, frame := range batch {
			m := q.rxMapping(reqs[i].Ref)
			copied = append(copied, m == nil)
			if m != nil {
				copy(m.Page.Bytes()[:frame.Len()], frame.Bytes())
				memcpyBytes += frame.Len()
				continue
			}
			ops = append(ops, xen.CopyOp{
				Src: xen.CopyPtr{Data: frame.Bytes()},
				Dst: xen.CopyPtr{Dom: v.frontDom, Ref: reqs[i].Ref},
				Len: frame.Len(),
			})
		}
		ds.rxCopied = copied[:0]
		_ = q.copyGrant(hv, ops) // every op carries its own status, read below
		cost := sim.Time(len(reqs)) * v.costs.PerPacketRx
		cost += sim.Time(memcpyBytes) * hv.Costs.CopyBytePerKB / 1024
		q.cpu.Charge(cost)
		// Each request is answered by its own op's status; a memcpy
		// through a mapping cannot fail.
		op := 0
		for i, req := range reqs {
			status := int8(netif.StatusOK)
			if copied[i] {
				if ops[op].Status != xen.CopyOkay {
					status = netif.StatusError
				}
				op++
			}
			if status == netif.StatusOK {
				q.stats.RxFrames++
				q.stats.RxBytes += uint64(batch[i].Len())
			}
			// A frame is at most framepool.MaxFrame long, so its length fits.
			q.rx.PushResponse(netif.RxResponse{ID: req.ID, Offset: 0, Len: uint16(batch[i].Len()), Status: status})
			batch[i].Release()
		}
		clearBufs(batch)
		if q.rx.PushResponsesAndCheckNotify() {
			notify = true
		}
	}
	if notify {
		q.notifyFront()
	}
	more = used >= budget && q.rxQueue.Len() > 0 && q.rx.RequestAvailable()
	return used, more
}

// rxMapping resolves an Rx grant ref through the queue's persistent cache,
// mirroring blkback's mapRef: a hit costs nothing (the page stays mapped),
// a miss pays one map hypercall and populates the cache. Returns nil when
// the map fails (caller falls back to a grant copy).
func (q *vifQueue) rxMapping(ref xen.GrantRef) *xen.Mapping {
	v := q.v
	if m := q.pgrants.Lookup(ref); m != nil {
		q.stats.RxPersistHits++
		return m
	}
	var m *xen.Mapping
	var err error
	if q.sharded {
		m, err = v.dom.Hypervisor().MapGrantOn(v.dom, q.cpu, v.frontDom, ref)
	} else {
		m, err = v.dom.Hypervisor().MapGrant(v.dom, v.frontDom, ref)
	}
	if err != nil {
		return nil
	}
	q.stats.RxPersistMisses++
	q.pgrants.Fill(m)
	return m
}

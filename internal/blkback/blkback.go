// Package blkback implements the storage backend driver of a driver
// domain — the largest from-scratch component of Kite (Table 1, 1904 LOC).
// A dedicated request thread per hardware queue drains its blkif ring when
// the queue's event channel fires (§3.3); requests resolve their granted
// segments through a persistent-reference cache (avoiding map/unmap
// hypercalls), consecutive segments from one or more requests are batched
// into single device operations, and completions are answered
// asynchronously so later requests never wait on earlier ones.
//
// The transport is multi-queue (blk-mq): an instance owns one worker shard
// per negotiated queue, each pinned to its own driver-domain vCPU with a
// private ring, event channel, persistent-grant cache, pooled records, and
// NVMe submission queue — so request processing scales across vCPUs while
// per-queue state stays lock-free. The frontend stripes by extent, so each
// shard still sees mergeable sequential runs.
//
// The device path is vectored end to end: a merged device op hands the
// NVMe model an iovec of grant-mapped page views (ReadVec/WriteVec), so
// merged requests are never flattened into an intermediate buffer. All
// per-request and per-op records are pooled on per-queue free lists
// with their completion closures created once, so the steady-state data
// path performs no heap allocation (DESIGN.md §9).
package blkback

import (
	"fmt"
	"strconv"

	"kite/internal/blkif"
	"kite/internal/nvme"
	"kite/internal/pvback"
	"kite/internal/sim"
	"kite/internal/xen"
)

// Costs parameterizes the backend per OS, plus feature knobs used both for
// negotiation and the paper's design-choice ablations.
type Costs struct {
	PerRequest  sim.Time
	PerSegment  sim.Time
	WakeLatency sim.Time

	Persistent bool // persistent grant references (§3.3)
	Indirect   bool // indirect segment requests (§3.3)
	Batch      bool // merge consecutive requests into one device op (§3.3)
}

// KiteCosts returns the rumprun storage-domain profile.
func KiteCosts() Costs {
	return Costs{
		PerRequest:  900 * sim.Nanosecond,
		PerSegment:  220 * sim.Nanosecond,
		WakeLatency: 2 * sim.Microsecond,
		Persistent:  true, Indirect: true, Batch: true,
	}
}

// LinuxCosts returns the Ubuntu storage-domain profile (heavier block
// layer and kthread wake path).
func LinuxCosts() Costs {
	return Costs{
		PerRequest:  1100 * sim.Nanosecond,
		PerSegment:  260 * sim.Nanosecond,
		WakeLatency: 9 * sim.Microsecond,
		Persistent:  true, Indirect: true, Batch: true,
	}
}

// Stats counts instance activity.
type Stats struct {
	RingRequests   uint64
	Segments       uint64
	DeviceOps      uint64
	MergedRequests uint64 // requests folded into a previous device op
	PersistentHits uint64 // segment resolutions served from the cache
	Bytes          uint64 // payload bytes moved (reads + writes)
	Errors         uint64
}

type resolvedSeg struct {
	mapping    *xen.Mapping
	persistent bool
	firstSect  int
	bytes      int
}

// ioReq is one parsed ring request. Instances are pooled on the owning
// queue's free list; segs keeps its capacity across recycles.
type ioReq struct {
	id     uint64
	op     blkif.Op // OpRead/OpWrite/OpFlush after unwrapping indirect
	sector int64    // absolute device sector (translated)
	segs   []resolvedSeg
	bytes  int
	q      *ioQueue
}

// deviceOp is one merged device operation. Instances are pooled; reqs and
// iov keep their capacity across recycles, and onDone is created once per
// record so submission never allocates a completion closure. iov lives on
// the op (not the queue) because several ops are in flight at once.
type deviceOp struct {
	op     blkif.Op
	sector int64
	bytes  int
	reqs   []*ioReq
	iov    [][]byte
	q      *ioQueue
	onDone func(err error) // created once, calls q.complete(op, err)
}

// ioQueue is one hardware-queue worker shard: its ring, event channel,
// request thread pinned to one driver-domain vCPU, persistent-grant cache,
// NVMe submission queue, and all pooled records — fully private, so shards
// never contend.
type ioQueue struct {
	inst *Instance
	id   int

	ring *blkif.Ring
	port xen.Port
	cpu  *sim.CPU
	sq   int // NVMe submission queue (the pinned vCPU's, like nvme's per-CPU SQs)

	thread *sim.Task
	pmaps  pvback.GrantCache // persistent mappings of the frontend's pool pages

	// Fleet mode: the shared DRR worker serving this queue (thread is nil
	// then; see Serve, Flush) and the queue's slot in the lane's member slab
	// (deficit, ring links, owed-response flag live there).
	lane     *pvback.Lane
	laneSlot int32

	// notify coalesces response publication: every respond in a completion
	// burst queues privately, and one wake publishes the lot and sends at
	// most one event-channel notification (§3.3's event coalescing).
	notify *sim.Batch

	// Free lists and drain-loop scratch; all retain capacity so the steady
	// state allocates nothing.
	ioFree     []*ioReq
	opFree     []*deviceOp
	batch      []*ioReq
	ops        []*deviceOp
	segScratch []blkif.Segment // indirect descriptor decode, one parse at a time
	unmapBuf   []*xen.Mapping  // releaseSegs staging

	stats Stats
}

// Instance is one blkback serving one frontend vbd through one worker
// shard per negotiated hardware queue.
type Instance struct {
	eng      *sim.Engine
	dom      *xen.Domain
	frontDom xen.DomID
	devid    int
	name     string
	costs    Costs

	dev  *nvme.Device
	base int64 // first sector of this vbd's window on the device
	size int64 // sectors

	queues []*ioQueue
	dead   bool
}

// NewInstance creates a connected blkback instance over a sector window of
// the physical device, one worker shard per channel queue. frontPorts
// carries the frontend's per-queue event channels (length must match the
// channel's queue count). With a nil lane every queue gets a dedicated
// request thread, pinned round-robin across the domain's vCPUs from the
// frontend's home CPU. With a fleet lane the (single) queue is served by the
// lane's DRR rounds instead: it runs on the lane's vCPU and NVMe submission
// queue — the lane owns this tenant's hypercall work end to end — and its
// doorbell joins the lane's demux group.
func NewInstance(eng *sim.Engine, dom *xen.Domain, frontDom xen.DomID, devid int,
	ch *blkif.Channel, frontPorts []xen.Port, dev *nvme.Device,
	baseSector, sectors int64, costs Costs, lane *pvback.Lane) (*Instance, error) {

	nq := ch.NumQueues()
	if len(frontPorts) != nq {
		return nil, fmt.Errorf("blkback: %d event channels for %d queues", len(frontPorts), nq)
	}
	if lane != nil && nq != 1 {
		return nil, fmt.Errorf("blkback: vbd%d.%d: fleet lanes serve single-queue frontends (%d queues)",
			frontDom, devid, nq)
	}
	inst := &Instance{
		eng: eng, dom: dom, frontDom: frontDom, devid: devid,
		// strconv, not fmt.Sprintf, as netback names its vif: fmt's frames
		// at this depth of the handshake grew the stack every rig build.
		name:  "vbd" + strconv.Itoa(int(frontDom)) + "." + strconv.Itoa(devid),
		costs: costs, dev: dev,
		base: baseSector, size: sectors,
	}
	// Map the ring pages (one per queue).
	mapCost := dom.Hypervisor().Costs.Base + sim.Time(nq)*dom.Hypervisor().Costs.GrantMapPage
	if lane != nil {
		lane.CPU().Charge(mapCost)
	} else {
		dom.CPUs.Charge(mapCost)
	}
	inst.queues = make([]*ioQueue, nq)
	for i := 0; i < nq; i++ {
		cpuIdx := (int(frontDom) + i) % dom.CPUs.Len()
		if lane != nil {
			cpuIdx = lane.ID() % dom.CPUs.Len()
		}
		q := &ioQueue{
			inst: inst, id: i,
			ring: ch.Rings.Queue(i),
			cpu:  dom.CPUs.CPU(cpuIdx),
			sq:   cpuIdx,
			lane: lane,
		}
		port, err := dom.BindInterdomain(frontDom, frontPorts[i])
		if err != nil {
			return nil, fmt.Errorf("blkback: %s: %w", inst.name, err)
		}
		q.port = port
		if err := dom.SetHandler(port, q.onEvent); err != nil {
			return nil, err
		}
		if lane != nil {
			if q.laneSlot, err = lane.Join(port, q); err != nil {
				return nil, fmt.Errorf("blkback: %s: %w", inst.name, err)
			}
		} else {
			q.thread = sim.NewTask(eng, q.cpu, costs.WakeLatency, q.drain)
		}
		q.notify = sim.NewBatch(eng, q.Flush)
		inst.queues[i] = q
	}
	return inst, nil
}

// NumQueues returns the instance's worker-shard count.
func (inst *Instance) NumQueues() int { return len(inst.queues) }

// Stats returns the counters aggregated over queues in queue order.
func (inst *Instance) Stats() Stats {
	var s Stats
	for _, q := range inst.queues {
		s.RingRequests += q.stats.RingRequests
		s.Segments += q.stats.Segments
		s.DeviceOps += q.stats.DeviceOps
		s.MergedRequests += q.stats.MergedRequests
		s.PersistentHits += q.stats.PersistentHits
		s.Bytes += q.stats.Bytes
		s.Errors += q.stats.Errors
	}
	return s
}

// QueueStats returns one worker shard's counters.
func (inst *Instance) QueueStats(i int) Stats { return inst.queues[i].stats }

// ThreadRuns exposes request-thread activity, summed over shards.
func (inst *Instance) ThreadRuns() (wakes, runs uint64) {
	for _, q := range inst.queues {
		if q.thread == nil {
			continue // fleet mode: the lane worker serves this queue
		}
		wakes += q.thread.Wakes()
		runs += q.thread.Runs()
	}
	return wakes, runs
}

// Shutdown quiesces the instance and drops persistent mappings.
func (inst *Instance) Shutdown() {
	if inst.dead {
		return
	}
	inst.dead = true
	for _, q := range inst.queues {
		if q.lane != nil {
			q.lane.Detach(q.port, q.laneSlot)
		}
		_ = inst.dom.Close(q.port)
		q.pmaps.Drain(inst.dom)
	}
}

// getIO takes a pooled request record off the shard's free list.
func (q *ioQueue) getIO() *ioReq {
	if n := len(q.ioFree); n > 0 {
		io := q.ioFree[n-1]
		q.ioFree = q.ioFree[:n-1]
		return io
	}
	return &ioReq{q: q} //kite:alloc-ok pool growth on free-list miss; steady state recycles
}

func (q *ioQueue) putIO(io *ioReq) {
	io.segs = io.segs[:0]
	io.bytes = 0
	q.ioFree = append(q.ioFree, io)
}

// getOp takes a pooled device op; onDone is bound exactly once, when the
// record is first allocated, and survives every recycle.
func (q *ioQueue) getOp() *deviceOp {
	if n := len(q.opFree); n > 0 {
		op := q.opFree[n-1]
		q.opFree = q.opFree[:n-1]
		return op
	}
	op := &deviceOp{q: q}                                  //kite:alloc-ok pool growth on free-list miss; steady state recycles
	op.onDone = func(err error) { op.q.complete(op, err) } //kite:alloc-ok one completion closure per record, bound at first allocation
	return op
}

func (q *ioQueue) putOp(op *deviceOp) {
	op.reqs = op.reqs[:0]
	op.iov = op.iov[:0]
	op.bytes = 0
	q.opFree = append(q.opFree, op)
}

// onEvent wakes the shard's request thread (§3.3: the handler itself stays
// tiny).
//
//kite:hotpath
func (q *ioQueue) onEvent() {
	if q.inst.dead {
		return
	}
	if !q.ring.RequestAvailable() {
		return
	}
	if q.lane != nil {
		q.lane.Activate(q.laneSlot)
	} else {
		q.thread.Wake()
	}
}

// drain is the request thread body (dedicated-worker mode).
func (q *ioQueue) drain() { q.Serve(pvback.Unlimited) }

// Serve serves up to budget ring requests, reporting how many were consumed
// and whether work remains beyond the budget. It implements pvback.Member —
// a fleet lane passes the member's request deficit — and a dedicated thread
// passes pvback.Unlimited. more is true only when budget — not the ring — ended
// the drain, so a drained member leaves its lane's round.
func (q *ioQueue) Serve(budget int) (used int, more bool) {
	inst := q.inst
	if inst.dead {
		return 0, false
	}
	for {
		q.batch = q.batch[:0]
		for used < budget {
			req, ok := q.ring.TakeRequest()
			if !ok {
				break
			}
			used++
			q.stats.RingRequests++
			io, err := q.parse(req)
			if err != nil {
				q.stats.Errors++
				q.respond(req.ID, blkif.StatusError)
				continue
			}
			q.batch = append(q.batch, io)
		}
		if len(q.batch) == 0 {
			if used >= budget {
				more = q.ring.RequestAvailable()
				break
			}
			if q.ring.FinalCheckForRequests() {
				continue
			}
			break
		}
		q.buildOps()
		for _, op := range q.ops {
			q.submit(op)
		}
	}
	return used, more
}

// parse validates, translates, and resolves one ring request. Like
// xen-blkback it rejects a malformed request before mapping anything: an
// op other than flush, read or write (an indirect one wraps a read or a
// write); a read or write whose segment count is not 1..the limit; an
// indirect request that does not list exactly one descriptor page per
// SegsPerIndirectPage segments. On a later error the pooled record goes
// straight back to the free list.
func (q *ioQueue) parse(req blkif.Request) (*ioReq, error) {
	inst := q.inst
	op, segs, nseg, limit := req.Op, req.Segs, len(req.Segs), blkif.MaxSegsDirect
	switch {
	case op == blkif.OpFlush:
		io := q.getIO()
		io.id, io.op = req.ID, op
		return io, nil
	case op == blkif.OpIndirect && !inst.costs.Indirect:
		return nil, fmt.Errorf("blkback: indirect not negotiated")
	case op == blkif.OpIndirect:
		op, nseg, limit = req.Imm, req.IndirectSegs, blkif.MaxSegsIndirect
	}
	if op != blkif.OpRead && op != blkif.OpWrite {
		return nil, fmt.Errorf("blkback: unsupported op %d", op)
	}
	if nseg < 1 || nseg > limit {
		return nil, fmt.Errorf("blkback: %d segments, want 1..%d", nseg, limit)
	}
	if req.Op == blkif.OpIndirect {
		pages := (nseg + blkif.SegsPerIndirectPage - 1) / blkif.SegsPerIndirectPage
		if len(req.IndirectRefs) != pages {
			return nil, fmt.Errorf("blkback: %d indirect pages for %d segments, want %d",
				len(req.IndirectRefs), nseg, pages)
		}
		var err error
		if segs, err = q.parseIndirect(req); err != nil {
			return nil, err
		}
	}

	io := q.getIO()
	io.id, io.op = req.ID, op
	total, err := q.resolve(segs, io)
	if err != nil {
		q.putIO(io)
		return nil, err
	}
	io.bytes = total
	nsect := int64(total / blkif.SectorSize)
	if req.Sector < 0 || req.Sector > inst.size-nsect {
		q.releaseSegs(io.segs)
		q.putIO(io)
		return nil, fmt.Errorf("blkback: i/o beyond vbd (sector %d + %d)", req.Sector, nsect)
	}
	io.sector = inst.base + req.Sector
	return io, nil
}

// parseIndirect maps the descriptor pages and decodes the segment list into
// the shard's scratch (valid until the next parse).
func (q *ioQueue) parseIndirect(req blkif.Request) ([]blkif.Segment, error) {
	inst := q.inst
	q.segScratch = q.segScratch[:0]
	for pi, ref := range req.IndirectRefs {
		m, hit, err := q.mapRef(ref)
		if err != nil {
			return nil, err
		}
		if hit {
			q.stats.PersistentHits++
		}
		for si := pi * blkif.SegsPerIndirectPage; si < req.IndirectSegs && si < (pi+1)*blkif.SegsPerIndirectPage; si++ {
			q.segScratch = append(q.segScratch, blkif.GetSegment(m.Page, si%blkif.SegsPerIndirectPage))
		}
		if !inst.costs.Persistent {
			_ = inst.dom.Hypervisor().UnmapGrant(inst.dom, m)
		}
	}
	return q.segScratch, nil
}

// mapRef resolves one grant ref through the shard's persistent cache. The
// frontend's page pools are queue-affine, so a ref only ever appears on
// one shard and the caches never duplicate mappings.
func (q *ioQueue) mapRef(ref xen.GrantRef) (m *xen.Mapping, cacheHit bool, err error) {
	inst := q.inst
	if inst.costs.Persistent {
		if m := q.pmaps.Lookup(ref); m != nil {
			return m, true, nil
		}
	}
	m, err = inst.dom.Hypervisor().MapGrant(inst.dom, inst.frontDom, ref)
	if err != nil {
		return nil, false, err
	}
	if inst.costs.Persistent {
		q.pmaps.Fill(m)
	}
	return m, false, nil
}

// resolve maps every segment into io.segs (capacity retained across the
// record's recycles) and returns the byte total.
func (q *ioQueue) resolve(segs []blkif.Segment, io *ioReq) (int, error) {
	io.segs = io.segs[:0]
	total := 0
	for _, s := range segs {
		if s.FirstSect < 0 || s.LastSect >= blkif.SectorsPerPage || s.FirstSect > s.LastSect {
			q.releaseSegs(io.segs)
			return 0, fmt.Errorf("blkback: bad segment range %d..%d", s.FirstSect, s.LastSect)
		}
		m, hit, err := q.mapRef(s.Ref)
		if err != nil {
			q.releaseSegs(io.segs)
			return 0, err
		}
		if hit {
			q.stats.PersistentHits++
		}
		io.segs = append(io.segs, resolvedSeg{
			mapping: m, persistent: q.inst.costs.Persistent,
			firstSect: s.FirstSect, bytes: s.Bytes(),
		})
		total += s.Bytes()
		q.stats.Segments++
	}
	return total, nil
}

func (q *ioQueue) releaseSegs(segs []resolvedSeg) {
	q.unmapBuf = q.unmapBuf[:0]
	for i := range segs {
		s := &segs[i]
		if !s.persistent && s.mapping.Live() {
			q.unmapBuf = append(q.unmapBuf, s.mapping)
		}
	}
	_ = q.inst.dom.Hypervisor().UnmapGrantBatch(q.inst.dom, q.unmapBuf)
}

// buildOps merges consecutive same-direction requests from q.batch into
// single device operations in q.ops when batching is enabled (§3.3).
// Merging looks only at each request's resolved direction and extent, so
// direct and indirect requests fold into the same op. The frontend stripes
// by extent, so a sequential stream's run within one stripe is all here.
func (q *ioQueue) buildOps() {
	q.ops = q.ops[:0]
	for _, io := range q.batch {
		if io.op == blkif.OpFlush {
			op := q.getOp()
			op.op, op.sector = blkif.OpFlush, 0
			op.reqs = append(op.reqs, io)
			q.ops = append(q.ops, op)
			continue
		}
		if q.inst.costs.Batch && len(q.ops) > 0 {
			last := q.ops[len(q.ops)-1]
			if last.op == io.op && last.sector+int64(last.bytes/blkif.SectorSize) == io.sector {
				last.bytes += io.bytes
				last.reqs = append(last.reqs, io)
				q.stats.MergedRequests++
				continue
			}
		}
		op := q.getOp()
		op.op, op.sector, op.bytes = io.op, io.sector, io.bytes
		op.reqs = append(op.reqs, io)
		q.ops = append(q.ops, op)
	}
}

// submit issues one device operation on the shard's pinned vCPU and NVMe
// submission queue. Reads and writes build an iovec of grant-mapped page
// views on the op and hand it to the device's vectored entry points — the
// merged payload is never flattened into a bounce buffer. The op's
// pre-bound onDone wires the completion back here.
func (q *ioQueue) submit(op *deviceOp) {
	inst := q.inst
	cost := sim.Time(len(op.reqs)) * inst.costs.PerRequest
	for _, io := range op.reqs {
		cost += sim.Time(len(io.segs)) * inst.costs.PerSegment
	}
	q.cpu.Charge(cost)
	q.stats.DeviceOps++
	if op.op != blkif.OpFlush {
		q.stats.Bytes += uint64(op.bytes)
	}

	switch op.op {
	case blkif.OpFlush:
		inst.dev.Flush(op.onDone)
	case blkif.OpWrite, blkif.OpRead:
		op.iov = op.iov[:0]
		for _, io := range op.reqs {
			for i := range io.segs {
				s := &io.segs[i]
				start := s.firstSect * blkif.SectorSize
				op.iov = append(op.iov, s.mapping.Page.Bytes()[start:start+s.bytes])
			}
		}
		if op.op == blkif.OpWrite {
			inst.dev.WriteVecQ(q.sq, op.sector, op.iov, op.onDone)
		} else {
			inst.dev.ReadVecQ(q.sq, op.sector, op.iov, op.onDone)
		}
	}
}

// complete answers every request covered by a device op and recycles the
// pooled records. For reads the device has already gathered into the
// grant-mapped views in op.iov, so there is nothing to copy here.
//
//kite:hotpath
func (q *ioQueue) complete(op *deviceOp, err error) {
	if q.inst.dead {
		return
	}
	status := int8(blkif.StatusOK)
	if err != nil {
		status = blkif.StatusError
		q.stats.Errors++
	}
	for _, io := range op.reqs {
		q.releaseSegs(io.segs)
		q.respond(io.id, status)
		q.putIO(io)
	}
	q.putOp(op)
}

func (q *ioQueue) respond(id uint64, status int8) {
	if !q.ring.PushResponse(blkif.Response{ID: id, Status: status}) {
		return // protocol violation by frontend; nothing sane to do
	}
	if q.lane != nil && q.lane.InRound() {
		// Mid-round respond (parse error): the round's flush pass publishes
		// once per member; no per-respond batch event.
		q.lane.Owe(q.laneSlot)
		return
	}
	q.notify.Arm(q.inst.eng.Now())
}

// Flush publishes every privately queued response and notifies the frontend
// at most once per burst: the notify batch's wake and — implementing
// pvback.Member — a lane round's one publication per member of what it
// pushed synchronously.
func (q *ioQueue) Flush() {
	if q.inst.dead {
		return
	}
	if q.ring.PushResponsesAndCheckNotify() {
		q.inst.dom.Notify(q.port)
	}
}

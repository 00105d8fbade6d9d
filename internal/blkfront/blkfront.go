// Package blkfront implements the paravirtual block frontend driver used
// by DomU guests: a virtual disk whose reads and writes travel the blkif
// ring to a blkback instance in the storage driver domain. It negotiates
// and uses the optimizations the paper implements in Kite's blkback —
// persistent grant references and indirect segments (§3.3, §4.4) — and
// splits large I/O into as few ring requests as the negotiated limits
// allow. The xenbus handshake, the backend watch and teardown are
// pvfront's; this package supplies the vbd's rings, keys and data path
// through its hooks.
//
// The transport is multi-queue (blk-mq over blkif): requests are steered by
// extent, the virtual disk striped in 512 KiB chunks each owned by one
// queue, so a sequential stream stays mergeable within its queue and
// same-sector requests stay ordered. Each queue owns its persistent-grant
// page pool, keeping grant refs queue-affine for the backend's caches.
//
// Read completions borrow a refcounted buffer from a blkpool, valid only
// for the duration of a ReadSectors callback (DESIGN.md §9.3); ReadSectorsInto
// takes the caller's own destination. Every whole page of a read's
// destination is lent to the granted page that carries it
// (xen.Domain.LendGrant) from submission to completion, so the backend's
// device lands the data in its final place and the persistent-grant bounce
// copy is charged but not performed. Caller ops, ring-request parts and the
// ring-full backlog are pooled, so the steady-state data path allocates
// nothing.
//
// When the backend goes, every in-flight request ends its loans and is
// parked with the backlog; the next backend's Connected resubmits them
// (Linux's blkif_recover), and Close fails them.
package blkfront

import (
	"fmt"
	"slices"
	"strconv"

	"kite/internal/blkif"
	"kite/internal/blkpool"
	"kite/internal/mem"
	"kite/internal/pvback"
	"kite/internal/pvfront"
	"kite/internal/sim"
	"kite/internal/xen"
	"kite/internal/xenstore"
)

// stripeSectors is the extent-striping granularity (512 KiB): a maximal
// 128 KiB indirect request never spans queues, so blkback still merges
// consecutive requests within a queue.
const stripeSectors = 1024

// Costs models the guest-side software path per request.
type Costs struct {
	PerRequest sim.Time // block layer + driver work per ring request
	PerKBCopy  sim.Time // memcpy per KiB for persistent-grant staging (modelled; reads lend instead)
}

// GuestCosts returns the Ubuntu DomU profile.
func GuestCosts() Costs {
	return Costs{PerRequest: 1200 * sim.Nanosecond, PerKBCopy: 55 * sim.Nanosecond}
}

// Stats counts frontend activity.
type Stats struct {
	Reads, Writes, Flushes uint64
	ReadBytes, WriteBytes  uint64
	RingRequests           uint64
	IndirectRequests       uint64
	QueuedFull             uint64
}

type poolPage struct {
	page *mem.Page
	ref  xen.GrantRef
	// own is the page's own backing while its grant carries a page of a
	// read's destination on loan, kept to hand back when the loan ends.
	own []byte
}

// reqPart is one in-flight ring request: the pending op it was built from
// (what a replay resubmits) and its granted pages. Parts are pooled; segs
// and indRefs live on the part because the ring slot shares their arrays
// until the backend consumes the request.
type reqPart struct {
	pendingOp
	q        *queue // the hardware queue the part rides (pages return there)
	pages    []poolPage
	indirect []poolPage // descriptor pages (granted, freed after response)
	segs     []blkif.Segment
	indRefs  []xen.GrantRef
	readDst  []byte // for reads: destination slice for this part
	// lent counts the leading pages whose grant carries their page of readDst
	// on loan (every whole page of a read); 0 once the loans end.
	lent int
}

// callerOp is one ReadSectors/WriteSectors/Flush invocation. Pooled;
// exactly one of doneRead/doneErr is set, so no adapter closure allocates.
type callerOp struct {
	remaining int
	err       error
	readBuf   []byte
	buf       *blkpool.Buf // pooled backing for readBuf; nil for ReadSectorsInto
	doneRead  func(data []byte, err error)
	doneErr   func(err error)
}

// pendingOp is one ring request's worth of a caller op (a flush: OpFlush
// at sector 0) waiting for ring space or for the next backend.
type pendingOp struct {
	op        blkif.Op
	sector    int64
	size      int
	writeData []byte
	readOff   int
	caller    *callerOp
}

// queue is one hardware queue (xen-blkfront's struct blkfront_ring_info).
type queue struct {
	d    *Device
	ring *blkif.Ring
	port xen.Port

	pool []poolPage // persistent-grant page pool (queue-affine refs)

	pending  []pendingOp // ring-full backlog: retried on completions
	pendHead int
}

// Device is one vbd frontend.
type Device struct {
	pvfront.Device
	eng   *sim.Engine
	cpus  *sim.CPUPool // vCPUs the device runs on: Config.CPUs, else all of dom's
	costs Costs

	queues []*queue

	persistent  bool
	maxIndirect int
	sectors     int64
	flushOK     bool

	bufs *blkpool.Pool // read staging
	// inflight is a slot-indexed shadow table (like Linux blkfront's):
	// request IDs are slot+1 and recycle through freeIDs, so it grows to
	// the in-flight high-water mark and never churns.
	inflight []*reqPart
	freeIDs  []uint64
	// parked is what a lost backend left unanswered, for the next one.
	parked []pendingOp

	partFree   []*reqPart
	callerFree []*callerOp

	stats Stats
}

// Config describes the frontend to create.
type Config struct {
	pvfront.Config
	Costs Costs
	Pool  *blkpool.Pool // read-buffer pool; private pool when nil
	// CPUs confines the device to a sub-pool of the guest's vCPUs (costs,
	// and queue q's event channel on CPUs.CPU(q mod Len)); required when
	// other vCPUs are pinned to shards the device's engine does not own.
	// nil means the whole domain, ports unbound.
	CPUs *sim.CPUPool
}

// New creates the frontend for a toolstack-created vbd and starts the
// handshake.
func New(eng *sim.Engine, cfg Config) *Device {
	costs := cfg.Costs
	if costs.PerRequest == 0 {
		costs = GuestCosts()
	}
	bufs := cfg.Pool
	if bufs == nil {
		bufs = blkpool.New()
	}
	cpus := cfg.CPUs
	if cpus == nil {
		cpus = cfg.Dom.CPUs
	}
	d := &Device{eng: eng, cpus: cpus, costs: costs, bufs: bufs}
	d.Start(cfg.Config, xenstore.DevVbd, blkif.MaxQueues, (*hooks)(d))
	return d
}

// hooks is the vbd's pvfront.Class: the Device as the handshake sees it.
type hooks Device

// Rings reads the backend's features and builds one ring per queue.
func (h *hooks) Rings(backPath string, nq int) pvback.Channel {
	d := (*Device)(h)
	st := d.Bus.Store()
	d.persistent = d.Bus.ReadFeature(backPath, xenstore.KeyFeaturePersistent)
	d.flushOK = d.Bus.ReadFeature(backPath, xenstore.KeyFeatureFlushCache)
	maxIndirect, _ := st.ReadInt(backPath + "/" + xenstore.KeyFeatureMaxIndirect)
	d.maxIndirect = min(int(maxIndirect), blkif.MaxSegsIndirect)
	d.sectors, _ = st.ReadInt(backPath + "/" + xenstore.KeySectors)
	ch := blkif.NewChannel(nq)
	d.queues = make([]*queue, nq)
	for i := range d.queues {
		d.queues[i] = &queue{d: d, ring: ch.Rings.Queue(i)}
	}
	return ch
}

// Queue binds a confined device's upcalls inside its sub-pool.
func (h *hooks) Queue(i int, port xen.Port) (func(), *sim.CPU) {
	q := h.queues[i]
	q.port = port
	if h.cpus != h.Dom.CPUs {
		return q.onEvent, h.cpus.CPU(i % h.cpus.Len())
	}
	return q.onEvent, nil
}

// RingRefs writes queue i's ring ref.
func (h *hooks) RingRefs(dir string, i int) {
	h.Bus.Store().Write(dir+"/"+xenstore.KeyRingRef, strconv.Itoa(h.DevID+100+i))
}

// Keys writes the ABI and whether persistent grants are in use.
func (h *hooks) Keys(frontPath string) {
	h.Bus.Store().Write(frontPath+"/"+xenstore.KeyProtocol, "x86_64-abi")
	h.Bus.WriteFeature(frontPath, xenstore.KeyFeaturePersistent, h.persistent)
}

// Connect resubmits what a lost backend left unanswered (blkif_recover);
// a part keeps its size, so a backend with smaller limits fails it.
func (h *hooks) Connect() {
	d := (*Device)(h)
	for _, p := range d.parked {
		d.queueFor(p.sector).submitOrQueue(p)
	}
	d.parked = nil
}

// Lost parks every in-flight request (loans ended, pages pooled), then the
// backlog.
func (h *hooks) Lost() {
	d := (*Device)(h)
	for _, part := range d.inflight {
		if part == nil {
			continue
		}
		d.endLoans(part)
		part.q.pool = append(part.q.pool, part.pages...)
		part.q.pool = append(part.q.pool, part.indirect...)
		d.parked = append(d.parked, part.pendingOp)
		d.putPart(part)
	}
	clear(d.inflight)
	d.inflight, d.freeIDs = d.inflight[:0], d.freeIDs[:0]
	for _, q := range d.queues {
		d.parked = append(d.parked, q.pending[q.pendHead:]...)
		q.pending, q.pendHead = nil, 0
	}
}

// Release ends every pooled grant, unless a live backend may still map
// them; a closed device fails its parked requests.
func (h *hooks) Release(live bool) bool {
	d := (*Device)(h)
	if d.Closed() {
		for _, p := range d.parked {
			p.caller.err = d.notConnected()
			d.finish(p.caller)
		}
		d.parked = nil
	}
	if live && slices.ContainsFunc(d.queues, func(q *queue) bool { return len(q.pool) > 0 }) {
		return false
	}
	for _, q := range d.queues {
		for _, pp := range q.pool {
			d.EndGrant(pp.ref)
		}
	}
	d.queues = nil
	return true
}

// Engine returns the simulation engine the device runs on.
func (d *Device) Engine() *sim.Engine { return d.eng }

// SectorCount returns the virtual disk size in sectors.
func (d *Device) SectorCount() int64 { return d.sectors }

// Persistent reports whether persistent grants were negotiated.
func (d *Device) Persistent() bool { return d.persistent }

// MaxIndirect returns the negotiated indirect segment limit (0 = none).
func (d *Device) MaxIndirect() int { return d.maxIndirect }

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats { return d.stats }

// BufPool returns the read-buffer pool, for leak accounting.
func (d *Device) BufPool() *blkpool.Pool { return d.bufs }

// maxBytesPerRequest returns the largest single ring request payload.
func (d *Device) maxBytesPerRequest() int {
	if d.maxIndirect > 0 {
		return d.maxIndirect * mem.PageSize
	}
	return blkif.MaxSegsDirect * mem.PageSize
}

// queueFor maps a virtual sector to its hardware queue by stripe.
func (d *Device) queueFor(sector int64) *queue {
	if len(d.queues) == 1 {
		return d.queues[0]
	}
	return d.queues[int((sector/stripeSectors)%int64(len(d.queues)))]
}

// getPage hands out a granted page: pooled when persistent, else fresh.
func (q *queue) getPage() poolPage {
	d := q.d
	if d.persistent {
		if n := len(q.pool); n > 0 {
			p := q.pool[n-1]
			q.pool = q.pool[:n-1]
			return p
		}
	}
	page := d.Dom.Arena.MustAlloc()
	ref := d.Dom.GrantAccess(d.BackDom, page, false)
	return poolPage{page: page, ref: ref}
}

// putPage takes back a page, its loan ended: pooled when persistent, else
// revoked and freed.
func (q *queue) putPage(p poolPage) {
	d := q.d
	if d.persistent {
		q.pool = append(q.pool, p)
		return
	}
	if err := d.Dom.EndAccess(p.ref); err == nil {
		d.Dom.Arena.Free(p.page)
	}
}

func (d *Device) getPart() *reqPart {
	if n := len(d.partFree); n > 0 {
		p := d.partFree[n-1]
		d.partFree = d.partFree[:n-1]
		return p
	}
	return &reqPart{} //kite:alloc-ok freelist growth; steady state recycles parts
}

func (d *Device) putPart(p *reqPart) {
	p.q = nil
	p.pages = p.pages[:0]
	p.indirect = p.indirect[:0]
	p.segs = p.segs[:0]
	p.indRefs = p.indRefs[:0]
	p.readDst = nil
	p.pendingOp = pendingOp{}
	d.partFree = append(d.partFree, p)
}

func (d *Device) getCaller() *callerOp {
	if n := len(d.callerFree); n > 0 {
		c := d.callerFree[n-1]
		d.callerFree = d.callerFree[:n-1]
		return c
	}
	return &callerOp{} //kite:alloc-ok freelist growth; steady state recycles ops
}

func (d *Device) putCaller(c *callerOp) {
	c.err = nil
	c.readBuf = nil
	c.buf = nil
	c.doneRead = nil
	c.doneErr = nil
	d.callerFree = append(d.callerFree, c)
}

// ReadSectors reads n sector-aligned bytes at sector; the slice passed to
// cb is pooled and valid only during the callback.
func (d *Device) ReadSectors(sector int64, n int, cb func(data []byte, err error)) {
	if err := d.validate(sector, n); err != nil {
		d.eng.After(0, func() { cb(nil, err) })
		return
	}
	d.stats.Reads++
	d.stats.ReadBytes += uint64(n)
	op := d.getCaller()
	op.buf = d.bufs.Get(n)
	op.readBuf = op.buf.Bytes()
	op.doneRead = cb
	d.split(blkif.OpRead, sector, nil, op)
}

// ReadSectorsInto reads len(dst) sector-aligned bytes at sector into dst.
//
//kite:hotpath
func (d *Device) ReadSectorsInto(sector int64, dst []byte, cb func(err error)) {
	if err := d.validate(sector, len(dst)); err != nil {
		d.eng.After(0, func() { cb(err) }) //kite:alloc-ok validation-error path
		return
	}
	d.stats.Reads++
	d.stats.ReadBytes += uint64(len(dst))
	op := d.getCaller()
	op.readBuf = dst
	op.doneErr = cb
	d.split(blkif.OpRead, sector, nil, op)
}

// WriteSectors writes sector-aligned data at sector. data must stay valid
// until cb fires.
//
//kite:hotpath
func (d *Device) WriteSectors(sector int64, data []byte, cb func(err error)) {
	if err := d.validate(sector, len(data)); err != nil {
		d.eng.After(0, func() { cb(err) }) //kite:alloc-ok validation-error path
		return
	}
	d.stats.Writes++
	d.stats.WriteBytes += uint64(len(data))
	op := d.getCaller()
	op.doneErr = cb
	d.split(blkif.OpWrite, sector, data, op)
}

// Flush issues a cache-flush barrier on queue 0: the device flush drains
// every hardware queue, as blk-mq flushes through a single hctx.
func (d *Device) Flush(cb func(err error)) {
	if !d.Ready() {
		err := d.notConnected()
		d.eng.After(0, func() { cb(err) })
		return
	}
	d.stats.Flushes++
	op := d.getCaller()
	op.remaining = 1
	op.doneErr = cb
	d.queues[0].submitOrQueue(pendingOp{op: blkif.OpFlush, caller: op})
}

func (d *Device) validate(sector int64, n int) error {
	if !d.Ready() {
		return d.notConnected()
	}
	if n%blkif.SectorSize != 0 || n <= 0 {
		return fmt.Errorf("blkfront: unaligned or empty i/o (%d bytes)", n)
	}
	if sector < 0 || sector+int64(n/blkif.SectorSize) > d.sectors {
		return fmt.Errorf("blkfront: i/o beyond device (sector %d + %d bytes)", sector, n)
	}
	return nil
}

// notConnected is the error I/O gets before negotiation and after Close.
//
//kite:coldpath builds the refusal; a connected device never takes it
func (d *Device) notConnected() error {
	return fmt.Errorf("blkfront: device %d not connected", d.DevID)
}

// chunkBytes returns how many bytes the request at byte offset off may
// carry: the negotiated limit, and (multi-queue) no further than the next
// stripe boundary.
func (d *Device) chunkBytes(sector int64, off, n, maxB int) int {
	size := n - off
	if size > maxB {
		size = maxB
	}
	if len(d.queues) > 1 {
		cur := sector + int64(off/blkif.SectorSize)
		boundary := (cur/stripeSectors + 1) * stripeSectors
		if room := int(boundary-cur) * blkif.SectorSize; size > room {
			size = room
		}
	}
	return size
}

// split chops a caller op into ring requests within the negotiated limits
// and steers each at its stripe's queue.
func (d *Device) split(op blkif.Op, sector int64, data []byte, caller *callerOp) {
	maxB := d.maxBytesPerRequest()
	n := len(data)
	if op == blkif.OpRead {
		n = len(caller.readBuf)
	}
	// Count the chunks first: completions are asynchronous (event-driven),
	// so remaining is stable for the duration of the submission loop.
	count := 0
	for off := 0; off < n; off += d.chunkBytes(sector, off, n, maxB) {
		count++
	}
	caller.remaining = count
	for off := 0; off < n; {
		size := d.chunkBytes(sector, off, n, maxB)
		start := sector + int64(off/blkif.SectorSize)
		p := pendingOp{
			op:     op,
			sector: start,
			size:   size,
			caller: caller, readOff: off,
		}
		if op == blkif.OpWrite {
			p.writeData = data[off : off+size]
		}
		d.queueFor(start).submitOrQueue(p)
		off += size
	}
}

// submitOrQueue submits now or backlogs until ring space frees up;
// nothing jumps a non-empty backlog.
func (q *queue) submitOrQueue(p pendingOp) {
	if q.pendHead == len(q.pending) && q.trySubmit(p) {
		return
	}
	q.d.stats.QueuedFull++
	q.pending = append(q.pending, p)
}

func (q *queue) trySubmit(p pendingOp) bool {
	if p.op == blkif.OpFlush {
		return q.pushFlush(p)
	}
	return q.pushRequest(p)
}

func (q *queue) pumpPending() {
	for q.pendHead < len(q.pending) && q.trySubmit(q.pending[q.pendHead]) {
		q.pending[q.pendHead] = pendingOp{} // drop slice references
		q.pendHead++
	}
	if q.pendHead == len(q.pending) {
		q.pending = q.pending[:0]
		q.pendHead = 0
	}
}

// allocID parks part in the shadow table and returns its request ID
// (slot+1; 0 never appears on the ring, so a zero response ID is noise).
func (d *Device) allocID(part *reqPart) uint64 {
	if n := len(d.freeIDs); n > 0 {
		id := d.freeIDs[n-1]
		d.freeIDs = d.freeIDs[:n-1]
		d.inflight[id-1] = part
		return id
	}
	d.inflight = append(d.inflight, part) //kite:alloc-ok shadow table grows to the in-flight high-water mark
	return uint64(len(d.inflight))
}

// takeInflight claims the in-flight part for a response ID and recycles
// the slot; nil for an ID the table does not know.
func (d *Device) takeInflight(id uint64) *reqPart {
	if id == 0 || id > uint64(len(d.inflight)) {
		return nil
	}
	part := d.inflight[id-1]
	if part != nil {
		d.inflight[id-1] = nil
		d.freeIDs = append(d.freeIDs, id) //kite:alloc-ok free list grows to the in-flight high-water mark
	}
	return part
}

// pushRequest builds and pushes one ring request; false if the ring is
// full. A read lends each whole page of its destination to the granted
// page that carries it before the request goes on the ring.
func (q *queue) pushRequest(p pendingOp) bool {
	d := q.d
	op, size, writeData := p.op, p.size, p.writeData
	nsegs := (size + mem.PageSize - 1) / mem.PageSize
	indirect := nsegs > blkif.MaxSegsDirect
	if q.ring.Full() {
		return false
	}
	part := d.getPart()
	part.pendingOp, part.q = p, q
	id := d.allocID(part)

	for i := 0; i < nsegs; i++ {
		segBytes := size - i*mem.PageSize
		if segBytes > mem.PageSize {
			segBytes = mem.PageSize
		}
		pp := q.getPage()
		part.pages = append(part.pages, pp)
		if op == blkif.OpWrite {
			pp.page.CopyInto(0, writeData[i*mem.PageSize:i*mem.PageSize+segBytes])
		}
		part.segs = append(part.segs, blkif.Segment{
			Ref:       pp.ref,
			FirstSect: 0,
			LastSect:  segBytes/blkif.SectorSize - 1,
		})
	}
	if op == blkif.OpRead {
		part.readDst = p.caller.readBuf[p.readOff : p.readOff+size]
		part.lent = size / mem.PageSize
		for i := range part.pages[:part.lent] {
			pp := &part.pages[i]
			pp.own = d.Dom.LendGrant(pp.ref, part.readDst[i*mem.PageSize:(i+1)*mem.PageSize])
		}
	}

	req := blkif.Request{ID: id, Op: op, Sector: p.sector}
	cost := d.costs.PerRequest
	if op == blkif.OpWrite && d.persistent {
		cost += sim.Time(size) * d.costs.PerKBCopy / 1024
	}
	if indirect {
		// Write descriptors into granted indirect pages.
		npages := (nsegs + blkif.SegsPerIndirectPage - 1) / blkif.SegsPerIndirectPage
		req.Op = blkif.OpIndirect
		req.Imm = op
		req.IndirectSegs = nsegs
		d.stats.IndirectRequests++
		for pi := 0; pi < npages; pi++ {
			ip := q.getPage()
			part.indirect = append(part.indirect, ip)
			for si := pi * blkif.SegsPerIndirectPage; si < nsegs && si < (pi+1)*blkif.SegsPerIndirectPage; si++ {
				blkif.PutSegment(ip.page, si%blkif.SegsPerIndirectPage, part.segs[si])
			}
			part.indRefs = append(part.indRefs, ip.ref)
		}
		req.IndirectRefs = part.indRefs
	} else {
		req.Segs = part.segs
	}

	d.cpus.Charge(cost)
	d.stats.RingRequests++
	if !q.ring.PushRequest(req) {
		panic("blkfront: ring full despite check")
	}
	if q.ring.PushRequestsAndCheckNotify() {
		d.Dom.Notify(q.port)
	}
	return true
}

func (q *queue) pushFlush(p pendingOp) bool {
	d := q.d
	if q.ring.Full() {
		return false
	}
	part := d.getPart()
	part.pendingOp, part.q = p, q
	id := d.allocID(part)
	q.ring.PushRequest(blkif.Request{ID: id, Op: blkif.OpFlush})
	d.stats.RingRequests++
	if q.ring.PushRequestsAndCheckNotify() {
		d.Dom.Notify(q.port)
	}
	return true
}

// onEvent reaps this queue's completions.
//
//kite:hotpath
func (q *queue) onEvent() {
	d := q.d
	for {
		rsp, ok := q.ring.TakeResponse()
		if !ok {
			if q.ring.FinalCheckForResponses() {
				continue
			}
			break
		}
		part := d.takeInflight(rsp.ID)
		if part == nil {
			continue
		}
		d.completePart(part, rsp.Status)
	}
	q.pumpPending()
}

// endLoans takes a read's lent destination pages out of the backend's reach.
func (d *Device) endLoans(part *reqPart) {
	for i := range part.pages[:part.lent] {
		pp := &part.pages[i]
		d.Dom.EndLoan(pp.ref, pp.own)
		pp.own = nil
	}
	part.lent = 0
}

// completePart answers one ring request. A read's loans end first, before
// its pages go back or the caller reuses the destination; only a sub-page
// tail is copied out, while the bounce copy is charged in full.
func (d *Device) completePart(part *reqPart, status int8) {
	caller := part.caller
	q := part.q
	lent := part.lent
	d.endLoans(part)
	switch {
	case status != blkif.StatusOK:
		caller.err = fmt.Errorf("blkfront: backend reported error %d", status) //kite:alloc-ok backend-error path
	case part.op == blkif.OpRead:
		for i, pp := range part.pages[lent:] {
			copy(part.readDst[(lent+i)*mem.PageSize:], pp.page.Bytes())
		}
		d.cpus.Charge(sim.Time(len(part.readDst)) * d.costs.PerKBCopy / 1024)
	}
	for _, pp := range part.pages {
		q.putPage(pp)
	}
	for _, ip := range part.indirect {
		q.putPage(ip)
	}
	d.putPart(part)
	d.finish(caller)
}

// finish counts an answered part; the last delivers and recycles the op.
func (d *Device) finish(caller *callerOp) {
	caller.remaining--
	if caller.remaining != 0 {
		return
	}
	if caller.doneRead != nil {
		caller.doneRead(caller.readBuf, caller.err)
	} else if caller.doneErr != nil {
		caller.doneErr(caller.err)
	}
	if caller.buf != nil {
		caller.buf.Release()
	}
	d.putCaller(caller)
}

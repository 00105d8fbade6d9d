// Package nvme models the testbed's NVMe SSD (Samsung 970 EVO Plus 500 GB,
// Table 2): a block device with multiple parallel channels, per-command
// base latency, and direction-dependent bandwidth caps. Data is stored for
// real (sparse 4 KiB blocks), so storage-path tests verify end-to-end
// integrity, not just timing.
//
// The data-path entry points are the scatter-gather commands ReadVec and
// WriteVec: blkback hands down an iovec of grant-mapped page views and the
// device copies between those views and its sparse store directly, with no
// intermediate flattened buffer. The device itself allocates nothing in
// steady state: store blocks are carved from a slab (one allocation per 64
// first-touched blocks), found through an extent directory (one map entry
// per 256 KiB of LBA space, a block pointer per 4 KiB inside it, and a
// cursor on the last extent resolved, so a merged command or a sequential
// stream pays one lookup and then indexes), and completion callbacks ride
// pooled pending structs whose timer closures are created once and
// recycled forever.
package nvme

import (
	"fmt"

	"kite/internal/sim"
)

// SectorSize is the logical block size.
const SectorSize = 512

// blockSize is the sparse-store granularity: what one first-touched sector
// makes resident.
const blockSize = 4096

// slabBlocks is how many store blocks one slab allocation carves into:
// first-touch writes cost one make per 64 blocks instead of one per block.
const slabBlocks = 64

// extentBlocks is how many consecutive blocks share one directory: 256 KiB
// of LBA space, the span of one full indirect request, so a merged command
// resolves its directory once and indexes from there.
const extentBlocks = 64

// block is one resident 4 KiB of the store.
type block = [blockSize]byte

// extent is the directory of one extentBlocks-aligned run of LBA space: a
// pointer per block, nil where nothing was ever written. Residency stays
// per block — a lone sector written at a far LBA costs one block and one
// 512-byte directory, not the extent's 256 KiB.
type extent [extentBlocks]*block

// Op is a device command type.
type Op int

// Command types.
const (
	OpRead Op = iota
	OpWrite
	OpFlush
)

// Config describes the device.
type Config struct {
	Name          string
	CapacityBytes int64
	Channels      int      // parallel flash channels (queue-depth parallelism)
	ReadLatency   sim.Time // per-command base
	WriteLatency  sim.Time // per-command base (write cache absorbs)
	FlushLatency  sim.Time
	ReadBps       int64 // sustained read bandwidth
	WriteBps      int64 // sustained write bandwidth
	// RandomPenalty is added to a command's completion latency when it
	// does not continue the previous command's LBA range (flash
	// translation + NAND page open). It overlaps across queued commands —
	// parallel random I/O scales until the bus saturates.
	RandomPenalty sim.Time
	// CmdOverhead is per-command time on the shared bus (submission,
	// doorbell, completion) that does NOT overlap — what makes many small
	// commands slower than one merged command (§3.3's batching win).
	CmdOverhead sim.Time
}

// Default970EvoPlus returns the testbed device model.
func Default970EvoPlus() Config {
	return Config{
		Name:          "nvme0n1",
		CapacityBytes: 500 << 30,
		Channels:      8,
		ReadLatency:   65 * sim.Microsecond,
		WriteLatency:  20 * sim.Microsecond,
		FlushLatency:  150 * sim.Microsecond,
		ReadBps:       3_500_000_000,
		WriteBps:      3_200_000_000,
		RandomPenalty: 260 * sim.Microsecond,
		CmdOverhead:   8 * sim.Microsecond,
	}
}

// Stats counts device activity.
type Stats struct {
	ReadOps, WriteOps, FlushOps uint64
	VecReads, VecWrites         uint64 // scatter-gather commands
	ReadBytes, WriteBytes       uint64
	// DirLookups counts extent-directory map probes: the store's cursor
	// misses. A sequential stream pays one per extent, not one per block.
	DirLookups uint64
}

// Device is the simulated SSD.
type Device struct {
	eng *sim.Engine
	cfg Config
	bdf string

	// blocks is the sparse store: extent number (block / extentBlocks) to
	// that extent's directory. cur/curExt cache the last extent resolved
	// (cur is nil when that extent has no directory yet); curExt starts at
	// -1, which no LBA maps to.
	blocks map[int64]*extent
	cur    *extent
	curExt int64
	slab   []byte // spare capacity carved into store blocks

	// pendFree recycles in-flight command records; each carries a timer
	// closure created once, so issuing a command never allocates.
	pendFree []*pending

	// busBusyUntil serializes data transfers: bandwidth is a device-wide
	// resource. Per-command base latency overlaps across commands
	// (channel/queue parallelism).
	busBusyUntil sim.Time
	// sqs are the per-submission-queue timelines: command fetch + doorbell
	// overhead (CmdOverhead) serializes only within one SQ, so commands
	// submitted on distinct queues overlap their overhead — the reason
	// multi-queue submission scales small-command throughput while the data
	// bus stays a device-wide resource. Queue 0 always exists; others are
	// created on first use. Sequentiality is tracked per queue, matching a
	// striped submitter whose streams are each sequential.
	sqs   []sqState
	stats Stats
}

// sqState is one submission queue's private timeline.
type sqState struct {
	busyUntil sim.Time
	lastEnd   int64 // sector following this queue's previous command
}

// New creates a device with the given PCI BDF.
func New(eng *sim.Engine, cfg Config, bdf string) *Device {
	return &Device{
		eng:    eng,
		cfg:    cfg,
		bdf:    bdf,
		blocks: make(map[int64]*extent),
		curExt: -1,
	}
}

// BDF returns the PCI address for passthrough assignment.
func (d *Device) BDF() string { return d.bdf }

// CapacitySectors returns the number of logical sectors.
func (d *Device) CapacitySectors() int64 { return d.cfg.CapacityBytes / SectorSize }

// Stats returns a snapshot of the counters.
func (d *Device) Stats() Stats { return d.stats }

// pending is one in-flight command awaiting its completion time.
type pending struct {
	d      *Device
	cb     func(err error)
	iov    [][]byte // read gather targets; nil for writes
	sector int64
	err    error
	run    func() // created once, reused across recycles
}

func (d *Device) getPending() *pending {
	if n := len(d.pendFree); n > 0 {
		p := d.pendFree[n-1]
		d.pendFree = d.pendFree[:n-1]
		return p
	}
	p := &pending{d: d} //kite:alloc-ok pool growth on free-list miss; steady state recycles
	p.run = p.fire
	return p
}

// fire delivers one command completion. Reads gather from the store at
// completion time (the moment the simulated DMA finishes), matching the
// pre-vectored behaviour where Read copied out in its completion event.
func (p *pending) fire() {
	d, cb, iov, sector, err := p.d, p.cb, p.iov, p.sector, p.err
	p.cb, p.iov, p.err = nil, nil, nil
	d.pendFree = append(d.pendFree, p)
	if err == nil && iov != nil {
		off := sector * SectorSize
		for _, seg := range iov {
			d.readRange(off, seg)
			off += int64(len(seg))
		}
	}
	cb(err)
}

// complete books the command on the bus and schedules its pooled pending
// record at the completion time.
func (d *Device) complete(queue int, op Op, sector int64, n int, iov [][]byte, cb func(err error)) {
	done := d.completionTime(queue, op, sector, n)
	p := d.getPending()
	p.cb, p.iov, p.sector, p.err = cb, iov, sector, nil
	d.eng.Schedule(done, p.run)
}

// sq returns submission queue i's timeline, growing the set on first use.
func (d *Device) sq(i int) *sqState {
	for len(d.sqs) <= i {
		d.sqs = append(d.sqs, sqState{})
	}
	return &d.sqs[i]
}

// completionTime books one command: fetch + doorbell overhead serializes on
// the submission queue, the data transfer serializes on the device-wide
// bus, and the overlappable base latency rides on top. With a single queue
// this reduces exactly to the pre-multi-queue timeline (overhead and
// transfer back to back after max(now, busy)). Non-sequential commands
// (per queue) pay the random-access penalty.
func (d *Device) completionTime(queue int, op Op, sector int64, n int) sim.Time {
	var bps int64
	var lat sim.Time
	if op == OpRead {
		bps, lat = d.cfg.ReadBps, d.cfg.ReadLatency
	} else {
		bps, lat = d.cfg.WriteBps, d.cfg.WriteLatency
	}
	q := d.sq(queue)
	start := d.eng.Now()
	if q.busyUntil > start {
		start = q.busyUntil
	}
	fetchEnd := start + d.cfg.CmdOverhead
	busStart := fetchEnd
	if d.busBusyUntil > busStart {
		busStart = d.busBusyUntil
	}
	busEnd := busStart + sim.Time(int64(n)*int64(sim.Second)/bps)
	if sector != q.lastEnd {
		lat += d.cfg.RandomPenalty
	}
	q.lastEnd = sector + int64(n/SectorSize)
	q.busyUntil = busEnd
	d.busBusyUntil = busEnd
	return busEnd + lat
}

// ReadVec reads into the iovec's segment views, starting at sector; cb
// fires at command completion, after the data has been gathered. The
// segments must stay valid (and unwritten by the caller) until then —
// ownership transfers to the device for the life of the command.
func (d *Device) ReadVec(sector int64, iov [][]byte, cb func(err error)) {
	d.ReadVecQ(0, sector, iov, cb)
}

// ReadVecQ is ReadVec submitted on a specific hardware queue: command
// overhead overlaps with other queues' commands, the data bus serializes.
func (d *Device) ReadVecQ(queue int, sector int64, iov [][]byte, cb func(err error)) {
	n := vecBytes(iov)
	if err := d.check(sector, n); err != nil {
		d.eng.After(0, func() { cb(err) }) //kite:alloc-ok error delivery; well-formed commands never take it
		return
	}
	d.stats.ReadOps++
	d.stats.VecReads++
	d.stats.ReadBytes += uint64(n)
	d.complete(queue, OpRead, sector, n, iov, cb)
}

// WriteVec gathers the iovec's segment views into the store at sector; cb
// fires at command completion. Like Write, the data lands in the store
// immediately (write cache); timing models the command completion, and the
// segments may be reused as soon as WriteVec returns.
func (d *Device) WriteVec(sector int64, iov [][]byte, cb func(err error)) {
	d.WriteVecQ(0, sector, iov, cb)
}

// WriteVecQ is WriteVec submitted on a specific hardware queue.
func (d *Device) WriteVecQ(queue int, sector int64, iov [][]byte, cb func(err error)) {
	n := vecBytes(iov)
	if err := d.check(sector, n); err != nil {
		d.eng.After(0, func() { cb(err) }) //kite:alloc-ok error delivery; well-formed commands never take it
		return
	}
	d.stats.WriteOps++
	d.stats.VecWrites++
	d.stats.WriteBytes += uint64(n)
	off := sector * SectorSize
	for _, seg := range iov {
		d.writeBytesAt(off, seg)
		off += int64(len(seg))
	}
	d.complete(queue, OpWrite, sector, n, nil, cb)
}

func vecBytes(iov [][]byte) int {
	n := 0
	for _, seg := range iov {
		n += len(seg)
	}
	return n
}

// Read reads n bytes starting at sector into a fresh buffer; cb fires at
// command completion. Kept for raw-device callers and tests; the PV data
// path uses ReadVec.
func (d *Device) Read(sector int64, n int, cb func(data []byte, err error)) {
	if err := d.check(sector, n); err != nil {
		d.eng.After(0, func() { cb(nil, err) })
		return
	}
	d.stats.ReadOps++
	d.stats.ReadBytes += uint64(n)
	done := d.completionTime(0, OpRead, sector, n)
	d.eng.Schedule(done, func() {
		out := make([]byte, n)
		d.readRange(sector*SectorSize, out)
		cb(out, nil)
	})
}

// Write stores data at sector; cb fires at command completion.
func (d *Device) Write(sector int64, data []byte, cb func(err error)) {
	if err := d.check(sector, len(data)); err != nil {
		d.eng.After(0, func() { cb(err) })
		return
	}
	d.stats.WriteOps++
	d.stats.WriteBytes += uint64(len(data))
	d.writeBytesAt(sector*SectorSize, data)
	done := d.completionTime(0, OpWrite, sector, len(data))
	d.eng.Schedule(done, func() { cb(nil) })
}

// Flush completes when all in-flight commands have drained.
func (d *Device) Flush(cb func(err error)) {
	d.stats.FlushOps++
	latest := d.eng.Now()
	if d.busBusyUntil > latest {
		latest = d.busBusyUntil
	}
	// The flush must also outlast the base latency of in-flight writes.
	latest += d.cfg.WriteLatency
	p := d.getPending()
	p.cb = cb
	d.eng.Schedule(latest+d.cfg.FlushLatency, p.run)
}

func (d *Device) check(sector int64, n int) error {
	if sector < 0 || n < 0 || (sector*SectorSize)+int64(n) > d.cfg.CapacityBytes {
		return fmt.Errorf("nvme: access beyond device (sector %d, %d bytes)", sector, n)
	}
	if n%SectorSize != 0 {
		return fmt.Errorf("nvme: unaligned length %d", n)
	}
	return nil
}

// PeekBytes copies the stored content of [sector, sector+n/SectorSize) into
// a fresh buffer without touching the timing model — a diagnostic/test
// window onto the on-disk state.
func (d *Device) PeekBytes(sector int64, n int) []byte {
	out := make([]byte, n)
	d.readRange(sector*SectorSize, out)
	return out
}

// extentAt resolves extent number ext to its directory, nil if nothing in
// the extent was ever written: the cursor when it already points there,
// one map probe otherwise.
func (d *Device) extentAt(ext int64) *extent {
	if ext != d.curExt {
		d.stats.DirLookups++
		d.cur, d.curExt = d.blocks[ext], ext
	}
	return d.cur
}

// newExtent installs an empty directory for ext, which the cursor has just
// resolved to nil.
//
//kite:coldpath once per 256 KiB of LBA space first written; steady state rewrites resident extents
func (d *Device) newExtent(ext int64) *extent {
	e := new(extent)
	d.blocks[ext] = e
	d.cur = e
	return e
}

// readRange copies stored bytes at byte offset off into dst; unwritten
// regions read as zeros (and must overwrite recycled destination buffers,
// hence the explicit clear).
func (d *Device) readRange(off int64, dst []byte) {
	for len(dst) > 0 {
		blk := off / blockSize
		in := int(off % blockSize)
		run := min(blockSize-in, len(dst))
		if e := d.extentAt(blk / extentBlocks); e != nil && e[blk%extentBlocks] != nil {
			copy(dst[:run], e[blk%extentBlocks][in:])
		} else {
			clear(dst[:run])
		}
		dst = dst[run:]
		off += int64(run)
	}
}

// carveBlock takes one zeroed store block from the slab, refilling it when
// empty.
func (d *Device) carveBlock() *block {
	if len(d.slab) < blockSize {
		d.slab = make([]byte, slabBlocks*blockSize) //kite:alloc-ok slab refill, amortized over slabBlocks carves
	}
	b := (*block)(d.slab)
	d.slab = d.slab[blockSize:]
	return b
}

// writeBytesAt stores data at byte offset off. A block's first write carves
// it from the slab; slab memory is fresh from make, so the part of the
// block a partial write leaves uncovered already reads as zeros.
func (d *Device) writeBytesAt(off int64, data []byte) {
	for len(data) > 0 {
		blk := off / blockSize
		in := int(off % blockSize)
		run := min(blockSize-in, len(data))
		ext, slot := blk/extentBlocks, blk%extentBlocks
		e := d.extentAt(ext)
		if e == nil {
			e = d.newExtent(ext)
		}
		if e[slot] == nil {
			e[slot] = d.carveBlock()
		}
		copy(e[slot][in:in+run], data)
		data = data[run:]
		off += int64(run)
	}
}

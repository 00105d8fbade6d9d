// Package blkif defines the shared block ring protocol between blkfront
// and blkback (xen/io/blkif.h): direct requests carry at most 11 segments
// (44 KiB) because that is all a ring slot holds next to the indexes;
// indirect requests reference descriptor pages and carry up to 32 segments
// (Linux's limit, which the paper adopts — §3.3, §4.4).
package blkif

import (
	"encoding/binary"

	"kite/internal/mem"
	"kite/internal/ring"
	"kite/internal/xen"
)

// RingSize is the blkif ring slot count (one page of slots: 32).
const RingSize = 32

// MaxQueues caps the negotiated hardware-queue count per vbd, like
// xen-blkback's max_queues module parameter (blk-mq).
const MaxQueues = 8

// MaxSegsDirect is the segment limit of a direct request (§3.3: 11
// segments, 44 KiB).
const MaxSegsDirect = 11

// MaxSegsIndirect is the adopted indirect-segment limit (§4.4: Linux
// supports at most 32; Kite limits likewise).
const MaxSegsIndirect = 32

// SegsPerIndirectPage is how many descriptors fit one indirect page (§3.3:
// 512 per page).
const SegsPerIndirectPage = 512

// SectorSize matches the device's logical block.
const SectorSize = 512

// SectorsPerPage is how many sectors one 4 KiB page holds.
const SectorsPerPage = mem.PageSize / SectorSize

// Op is a blkif operation code.
type Op int

// Operation codes (BLKIF_OP_*).
const (
	OpRead Op = iota
	OpWrite
	OpFlush
	OpIndirect // BLKIF_OP_INDIRECT wrapping a read or write
)

// Status codes (BLKIF_RSP_*).
const (
	StatusOK    = 0
	StatusError = -1
)

// Segment addresses part of one granted page: sectors FirstSect..LastSect
// inclusive.
type Segment struct {
	Ref       xen.GrantRef
	FirstSect int
	LastSect  int
}

// Bytes returns the segment's length in bytes.
func (s Segment) Bytes() int { return (s.LastSect - s.FirstSect + 1) * SectorSize }

// segDescSize is the serialized descriptor size inside an indirect page.
const segDescSize = 8

// PutSegment serializes a descriptor into an indirect page at index i —
// the frontend writes real bytes the backend parses, as on real Xen.
func PutSegment(p *mem.Page, i int, s Segment) {
	d := p.Bytes()[i*segDescSize:]
	binary.LittleEndian.PutUint32(d, uint32(s.Ref))
	d[4] = byte(s.FirstSect)
	d[5] = byte(s.LastSect)
}

// GetSegment parses descriptor i from an indirect page.
func GetSegment(p *mem.Page, i int) Segment {
	d := p.Bytes()[i*segDescSize:]
	return Segment{
		Ref:       xen.GrantRef(binary.LittleEndian.Uint32(d)),
		FirstSect: int(d[4]),
		LastSect:  int(d[5]),
	}
}

// Request is one ring slot's request.
type Request struct {
	ID     uint64
	Op     Op
	Imm    Op    // for OpIndirect: the wrapped op (read/write)
	Sector int64 // start sector on the virtual device
	// Direct segments (<= MaxSegsDirect) for OpRead/OpWrite.
	Segs []Segment
	// For OpIndirect: grant refs of descriptor pages plus the total
	// segment count.
	IndirectRefs []xen.GrantRef
	IndirectSegs int
}

// Response is one ring slot's response.
type Response struct {
	ID     uint64
	Status int8
}

// Ring is one blkif ring (the paper's single ring per device, §4.4; with
// multi-queue negotiation a device carries one per hardware queue).
type Ring = ring.Ring[Request, Response]

// Rings is the multi-queue transport: N independent blkif rings, one per
// negotiated hardware queue (blk-mq's one-ring-per-hctx layout).
type Rings = ring.MultiRing[Request, Response]

// NewRings allocates n independent blkif rings.
func NewRings(n int) *Rings { return ring.NewMulti[Request, Response](n, RingSize) }

// Channel is what the backend obtains by mapping the frontend's ring pages.
type Channel struct {
	Rings *Rings
}

// NewChannel allocates a channel with n hardware queues.
func NewChannel(n int) *Channel { return &Channel{Rings: NewRings(n)} }

// NumQueues returns the channel's hardware-queue count.
func (c *Channel) NumQueues() int { return c.Rings.NumQueues() }

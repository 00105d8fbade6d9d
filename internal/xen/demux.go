package xen

import (
	"fmt"
	"math/bits"

	"kite/internal/sim"
)

// Demux batches event-channel delivery for a backend that serves many
// frontends. A driver domain with one event channel per (guest, queue)
// pays one full upcall — IRQ latency, handler dispatch — per doorbell per
// guest; at fleet scale that is the dominant cost and it grows linearly
// with the tenant count. Real xen backends already amortize this with the
// shared-info pending bitsel: one upcall scans a word of pending bits and
// drains every signalled channel. Demux models exactly that: member ports
// mark a bit in a group-wide pending bitmap instead of scheduling their
// own upcall, and one scan event per doorbell quantum walks the bitmap in
// deterministic member order delivering every pending handler. One wake
// drains rings for many domains; the scan rate is bounded by the quantum
// no matter how many tenants signal.
type Demux struct {
	dom *Domain
	cpu *sim.CPU
	// quantum bounds the scan rate: consecutive scans start at least one
	// quantum apart, so N tenants' doorbells fold into one wake per
	// quantum instead of N upcalls.
	quantum sim.Time

	members []*channel
	// pending has one bit per member, indexed by join order. It is the
	// group-wide doorbell surface — the moral equivalent of xen's shared-
	// info pending bitsel. Every writer runs on the group's own shard: a
	// cross-shard notify arrives as an event there before it marks.
	pending []uint64

	scanF    func()
	armed    bool
	lastScan sim.Time
	// cursor is the scan position (next member index to consider) while a
	// scan is executing, -1 otherwise. Leave uses it to keep the live scan
	// aligned when compaction shifts members below the scan point.
	cursor int

	scans uint64 // scan events executed
	marks uint64 // member doorbells folded into those scans
}

// NewDemux creates a demux group delivering on cpu (which selects the
// cluster shard the scan runs on). quantum is the minimum spacing between
// scans; zero disables rate bounding (pure coalescing).
func (d *Domain) NewDemux(cpu *sim.CPU, quantum sim.Time) *Demux {
	g := &Demux{dom: d, cpu: cpu, quantum: quantum, cursor: -1}
	g.scanF = g.scan
	return g
}

// Join moves a local connected port into the group: its upcalls are
// replaced by a bit in the group bitmap and delivery happens during the
// group scan, on the group's vCPU, in join order. Join order is driver
// control flow, so scans are deterministic.
func (g *Demux) Join(port Port) error {
	ch := g.dom.port(port)
	if ch == nil {
		return fmt.Errorf("xen: demux join of unknown port %d", port)
	}
	if ch.demux != nil {
		return fmt.Errorf("xen: port %d already in a demux group", port)
	}
	ch.demux = g
	ch.demuxIdx = len(g.members)
	ch.cpu, ch.eng = g.cpu, g.cpu.Engine() // sends charge the scan vCPU; delivery rides the scan
	g.members = append(g.members, ch)
	if len(g.pending)*64 < len(g.members) {
		g.pending = append(g.pending, 0)
	}
	return nil
}

// Leave removes a member from the group (frontend teardown). Must be
// called before the port is closed, while the channel is still registered.
// Later members shift down one index and the pending bitmap is compacted
// to match, so join-order scanning stays deterministic; without this, a
// fleet churning tenants would pin one dead member slot per departure
// forever.
func (g *Demux) Leave(port Port) {
	ch := g.dom.port(port)
	if ch == nil || ch.demux != g {
		return
	}
	idx := ch.demuxIdx
	ch.demux = nil
	ch.demuxIdx = 0
	g.members = append(g.members[:idx], g.members[idx+1:]...)
	for i := idx; i < len(g.members); i++ {
		g.members[i].demuxIdx = i
	}
	// Collapse the departed bit out of the pending bitmap: bits above idx
	// shift down one, carrying across word boundaries.
	w := idx >> 6
	b := uint(idx) & 63
	low := uint64(1)<<b - 1
	g.pending[w] = g.pending[w]&low | (g.pending[w]>>1)&^low
	for j := w + 1; j < len(g.pending); j++ {
		g.pending[j-1] |= g.pending[j] << 63
		g.pending[j] >>= 1
	}
	if want := (len(g.members) + 63) / 64; len(g.pending) > want {
		g.pending = g.pending[:want]
	}
	// A Leave below a live scan's position shifts the not-yet-visited bits
	// down one; move the cursor with them so no pending member is skipped
	// or double-delivered.
	if g.cursor > idx {
		g.cursor--
	}
}

// Members returns the number of joined ports.
func (g *Demux) Members() int { return len(g.members) }

// Stats reports (scans executed, member doorbells absorbed). marks-scans
// is the demux win: upcalls that did not happen.
func (g *Demux) Stats() (scans, marks uint64) { return g.scans, g.marks }

// mark sets the member's pending bit and arms the scan if it is not
// already armed. The warmth rule mirrors channel.raise: a recently active
// scan vCPU (or a recent scan) takes the wake at the cheap streaming
// latency.
//
//kite:hotpath
func (g *Demux) mark(idx int) {
	g.pending[idx>>6] |= 1 << (uint(idx) & 63)
	g.marks++
	if g.armed {
		return
	}
	g.armed = true
	eng := g.cpu.Engine()
	now := eng.Now()
	lat := g.dom.IRQLatency
	if g.cpu.RecentlyActive(now, warmWindow) ||
		(g.lastScan > 0 && now-g.lastScan <= warmWindow) {
		lat /= 16
	}
	at := g.cpu.FreeAt() + lat
	if g.quantum > 0 {
		if min := g.lastScan + g.quantum; at < min {
			at = min
		}
	}
	eng.Schedule(at, g.scanF)
}

// scan is the batched upcall: deliver every signalled channel in member
// order, skipping idle members a pending word (64 members) at a time. The
// scan reads the live bitmap one bit at a time (no word snapshots), so
// handlers that Join or Leave members mid-scan stay consistent: compaction
// shifts the unvisited bits and the cursor together. Bits set at or above
// the cursor by handlers during the scan are drained in the same pass;
// bits below it re-arm a fresh scan at least a quantum later, so one
// scan's work is bounded by the member count.
//
//kite:hotpath
func (g *Demux) scan() {
	g.armed = false
	g.scans++
	g.lastScan = g.cpu.Engine().Now()
	g.cursor = 0
	for {
		idx := g.nextPending()
		if idx < 0 {
			break
		}
		g.cursor = idx + 1
		g.pending[idx>>6] &^= 1 << (uint(idx) & 63)
		g.members[idx].deliverDemux()
	}
	g.cursor = -1
}

// nextPending returns the lowest pending member index at or above the scan
// cursor, or -1: the cursor's word masked below the cursor, then each later
// word in turn.
//
//kite:hotpath
func (g *Demux) nextPending() int {
	for w := g.cursor >> 6; w < len(g.pending); w++ {
		word := g.pending[w]
		if w == g.cursor>>6 {
			b := uint(g.cursor) & 63
			word = word >> b << b
		}
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// deliverDemux is channel.deliver minus the self-scheduled upcall: the
// scan already paid the wake.
func (c *channel) deliverDemux() {
	c.pending = false
	if c.state != chanConnected {
		return
	}
	c.delivered++
	c.lastEvent = c.eng.Now()
	if c.handler != nil {
		c.handler()
	}
}

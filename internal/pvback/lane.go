// Package pvback holds what the network and storage backends of a driver
// domain have in common, said once: the fleet-mode service Lane (one
// deficit-round-robin worker serving many tenants' queues), the
// backend-invocation Driver that pairs waiting frontends with instances
// over a small device-class interface (§4.1, and §4.4's "same
// backend-invocation thread pattern"), the Registry standing in for the
// grant-mapping of ring pages, and the GrantCache of persistent mappings
// (§3.3). What differs per class — what serving a queue means, which
// features a backend advertises, how an instance is built — stays in
// netback and blkback.
package pvback

import (
	"kite/internal/sim"
	"kite/internal/xen"
)

// Unlimited is the deficit a dedicated worker serves its own queue with: it
// always runs the rings dry, DRR accounting off.
const Unlimited = int(^uint(0) >> 1)

// Member is one tenant queue as its lane's round sees it.
type Member interface {
	// Serve drains the member's rings against deficit, in the class's unit
	// (netback: bytes, blkback: requests; the last item may overshoot — DRR
	// serves while credit remains). It reports what it consumed and whether
	// work remains only because the deficit — not the work — ran out.
	Serve(deficit int) (used int, more bool)
	// Flush publishes what the member deferred with Owe during the round:
	// called at most once per round, after every member has been served.
	Flush()
}

// A Lane is the fleet-mode execution unit of a backend driver: one worker
// thread on one pinned vCPU (and one cluster shard) serving the
// single-queue devices of many tenant guests. One guest per dedicated worker
// pair does not survive contact with hundreds of guests — the task count
// explodes and a noisy guest's full rings keep its threads perpetually
// runnable, starving quieter tenants on the same vCPU. The lane replaces
// the per-device threads with one deficit-round-robin scheduler: every
// active member earns a quantum per round, a round serves each member up to
// its accumulated deficit, and a member with remaining backlog stays in the
// round while a drained member leaves (and forfeits its deficit, per DRR).
// A tenant offering 10x load therefore gets exactly its share per round and
// no more.
//
// Round state lives in a slot-indexed member slab — deficit, owed-flush
// flag, and the active-ring links packed per member — rather than behind
// per-queue pointers: a round walks an intrusive doubly-linked ring of
// backlogged members only, doorbell arrival re-links a member in O(1), and
// teardown unlinks in O(1), so nothing in the lane's hot path costs
// O(members). Idle tenants are not in the ring and cost zero.
//
// Doorbells are batched the same way: the lane owns one xen.Demux group,
// every member port joins it, and a single scan per doorbell quantum
// drains the pending bitmap — one wake serves rings for many domains
// instead of one upcall per (domain, queue). What a round owes its members'
// frontends is batched too: serving marks the member slot (Owe) instead of
// publishing inline, and the round flushes every marked member once at the
// end — at most one notification per member per round, issued back to back
// so the event-channel warm path prices the burst.
type Lane struct {
	id     int
	cpu    *sim.CPU // the backend worker vCPU
	demux  *xen.Demux
	worker *sim.Task

	// quantum is the DRR allotment added to each active member per round,
	// in the class's unit. It is deliberately several ring bursts so a round
	// moves useful work per tenant; fairness is unaffected by the exact
	// value.
	quantum int
	// endRound, if not nil, runs once per round between the last Serve and
	// the first Flush.
	endRound func()

	// members is the slot-indexed slab of per-member round state; slots
	// are assigned at Join and recycled through freeSlots at Detach.
	members   []member
	freeSlots []int32
	// head is the active ring: a circular doubly-linked list (slot
	// indices) of members with backlog, in activation order; -1 when
	// empty.
	head    int32
	activeN int
	// served is the round's scratch list of visited slots, reused so the
	// end-of-round flush allocates nothing.
	served []int32
	// inRound is set while the worker is serving members.
	inRound bool

	rounds uint64
}

// member is one tenant queue's round state, packed in the lane slab.
type member struct {
	q       Member
	deficit int
	// owed records something deferred to the end of the round (Owe).
	owed bool
	// next/prev are the active-ring links (slot indices); next == -1 means
	// the member is not backlogged and costs no round time.
	next, prev int32
}

// NewLane creates fleet lane id in dom: its worker, pinned to cpu on shard
// eng and dispatched (like its doorbell scans) at the wake latency; quantum
// and endRound as on Lane.
func NewLane(id int, dom *xen.Domain, eng *sim.Engine, cpu *sim.CPU,
	wake sim.Time, quantum int, endRound func()) *Lane {

	l := &Lane{id: id, cpu: cpu, quantum: quantum, endRound: endRound, head: -1}
	l.demux = dom.NewDemux(cpu, wake)
	l.worker = sim.NewTask(eng, cpu, wake, l.round)
	return l
}

// ID returns the lane index.
func (l *Lane) ID() int { return l.id }

// CPU returns the lane worker's vCPU.
func (l *Lane) CPU() *sim.CPU { return l.cpu }

// Members returns how many tenant queues have joined the lane's demux.
func (l *Lane) Members() int { return l.demux.Members() }

// Rounds returns how many DRR rounds the worker has executed.
func (l *Lane) Rounds() uint64 { return l.rounds }

// DemuxStats reports the lane's doorbell batching: scans executed and
// member doorbells absorbed into them.
func (l *Lane) DemuxStats() (scans, marks uint64) { return l.demux.Stats() }

// InRound reports whether the worker is serving members right now: what a
// member publishes from inside Serve can wait for the round's flush.
func (l *Lane) InRound() bool { return l.inRound }

// Join puts q's doorbell port into the lane's demux group and assigns q a
// member slot (recycling departed tenants' slots), which it returns.
func (l *Lane) Join(port xen.Port, q Member) (int32, error) {
	if err := l.demux.Join(port); err != nil {
		return -1, err
	}
	var s int32
	if n := len(l.freeSlots); n > 0 {
		s = l.freeSlots[n-1]
		l.freeSlots = l.freeSlots[:n-1]
	} else {
		s = int32(len(l.members))
		l.members = append(l.members, member{})
	}
	l.members[s] = member{q: q, next: -1, prev: -1}
	return s, nil
}

// link appends slot s to the active ring's tail (activation order).
//
//kite:hotpath
func (l *Lane) link(s int32) {
	m := &l.members[s]
	if l.head < 0 {
		m.next, m.prev = s, s
		l.head = s
	} else {
		tail := l.members[l.head].prev
		m.prev, m.next = tail, l.head
		l.members[tail].next = s
		l.members[l.head].prev = s
	}
	l.activeN++
}

// unlink removes slot s from the active ring in O(1).
//
//kite:hotpath
func (l *Lane) unlink(s int32) {
	m := &l.members[s]
	if m.next == s {
		l.head = -1
	} else {
		l.members[m.prev].next = m.next
		l.members[m.next].prev = m.prev
		if l.head == s {
			l.head = m.next
		}
	}
	m.next, m.prev = -1, -1
	l.activeN--
}

// Detach removes a departing tenant's queue from the lane: its doorbell
// leaves the demux group, any spot in the current DRR round is forfeited in
// O(1), and its slab slot returns to the free list. Runs during instance
// shutdown, before the queue's port closes — a churning fleet must not pin
// one dead member slot per departure.
func (l *Lane) Detach(port xen.Port, s int32) {
	l.demux.Leave(port)
	if l.members[s].next >= 0 {
		l.unlink(s)
	}
	l.members[s] = member{next: -1, prev: -1}
	l.freeSlots = append(l.freeSlots, s)
}

// Activate links the member in slot s into the DRR round (if not already
// there) in O(1) and wakes the worker.
//
//kite:hotpath
func (l *Lane) Activate(s int32) {
	if l.members[s].next < 0 {
		l.link(s)
	}
	l.worker.Wake()
}

// Owe marks the member in slot s for the current round's flush.
//
//kite:hotpath
func (l *Lane) Owe(s int32) { l.members[s].owed = true }

// round is the worker body: one deficit-round-robin pass over the active
// ring. Each backlogged member earns a quantum, is served against the
// accumulated deficit, and stays linked only if budget — not work — ran
// out. Members are visited in activation order; the pass touches exactly
// the backlogged members plus one flush per served member that is owed one,
// never the full fleet. Another round is scheduled while anyone still has
// backlog.
//
//kite:hotpath
func (l *Lane) round() {
	n := l.activeN
	if n == 0 {
		return
	}
	l.rounds++
	l.inRound = true
	served := l.served[:0]
	s := l.head
	for i := 0; i < n; i++ {
		m := &l.members[s]
		next := m.next
		m.deficit += l.quantum
		used, more := m.q.Serve(m.deficit)
		m.deficit -= used
		if !more {
			// Drained: leave the round and forfeit the unused deficit, so
			// idle tenants cannot bank credit against future backlogs.
			l.unlink(s)
			m.deficit = 0
		}
		served = append(served, s) //kite:alloc-ok scratch grows to the round high-water mark
		s = next
	}
	l.inRound = false
	if l.endRound != nil {
		l.endRound()
	}
	for _, s := range served {
		m := &l.members[s]
		if m.owed {
			m.owed = false
			m.q.Flush()
		}
	}
	l.served = served[:0]
	if l.activeN > 0 {
		l.worker.Wake()
	}
}

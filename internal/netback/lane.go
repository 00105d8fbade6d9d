package netback

import (
	"fmt"

	"kite/internal/bridge"
	"kite/internal/framepool"
	"kite/internal/sim"
	"kite/internal/xen"
)

// A ServiceLane is the fleet-mode execution unit of the netback driver:
// one worker thread on one pinned vCPU (and one cluster shard) serving
// the single-queue VIFs of many tenant guests. One guest per
// pusher+soft_start pair does not survive contact with hundreds of
// guests — the task count explodes and a noisy guest's full rings keep
// its threads perpetually runnable, starving quieter tenants on the same
// vCPU. The lane replaces the per-VIF threads with one deficit-round-
// robin scheduler: every active member queue earns a byte quantum per
// round, a round serves each member's Tx ring and Rx backlog up to its
// accumulated deficit, and a member with remaining backlog stays in the
// round while a drained member leaves (and forfeits its deficit, per
// DRR). A tenant offering 10x load therefore gets exactly its share per
// round and no more.
//
// Round state lives in a slot-indexed member slab — deficit, owed-doorbell
// flag, and the active-ring links packed per member — rather than behind
// per-queue pointers: a round walks an intrusive doubly-linked ring of
// backlogged members only, doorbell arrival re-links a member in O(1), and
// teardown unlinks in O(1), so nothing in the lane's hot path costs
// O(members). Idle tenants are not in the ring and cost zero.
//
// Doorbells are batched the same way: the lane owns one xen.Demux group,
// every member port joins it, and a single scan per doorbell quantum
// drains the pending bitmap — one wake serves rings for many domains
// instead of one upcall per (domain, queue). Completion notifications
// are batched too: drains during a round mark the member slot instead of
// raising the tenant's event channel inline, and the round flushes every
// owed doorbell once at the end — at most one notification per member per
// round, issued back to back.
type ServiceLane struct {
	id  int
	eng *sim.Engine // the lane's cluster shard
	cpu *sim.CPU    // the backend worker vCPU
	// ds is the drain state every member drains on: one arena, one set of
	// scratch slices and one bridge carrier for the lane, so a round makes
	// one bridge post and its buffers come home in one staged release per
	// window. All members charge the lane vCPU in execution order, so
	// their stamped bridge arrival times are monotone — the single-producer
	// contract bridge.Lane.InputAt requires holds across tenants.
	ds     *drainState
	demux  *xen.Demux
	worker *sim.Task

	// quantum is the DRR byte allotment added to each active member per
	// round. It is deliberately several MTUs so a round moves a useful
	// burst per tenant; fairness is unaffected by the exact value.
	quantum int

	// members is the slot-indexed slab of per-member round state; slots
	// are assigned at join, recycled through freeSlots at detach, and
	// addressed by vifQueue.laneSlot.
	members   []laneMember
	freeSlots []int32
	// head is the active ring: a circular doubly-linked list (slot
	// indices) of members with backlog, in activation order; -1 when
	// empty.
	head    int32
	activeN int
	// served is the round's scratch list of visited slots, reused so the
	// end-of-round doorbell flush allocates nothing.
	served []int32

	rounds uint64
}

// laneMember is one tenant queue's round state, packed in the lane slab.
type laneMember struct {
	q       *vifQueue
	deficit int
	// notify records a completion doorbell owed to this member, flushed
	// once at the end of the round instead of per drain call.
	notify bool
	// next/prev are the active-ring links (slot indices); next == -1 means
	// the member is not backlogged and costs no round time.
	next, prev int32
}

// laneQuantum is the default per-tenant byte allotment per DRR round.
const laneQuantum = 16 << 10

// NewServiceLane creates fleet lane id for dom: worker pinned to cpu on
// shard, frames drawn from pool and handed to br on shard dev, forwarding
// on fwdCPU, doorbells demuxed at the costs' wake latency.
func NewServiceLane(id int, dom *xen.Domain, shard *sim.Engine, cpu *sim.CPU,
	br *bridge.Bridge, dev *sim.Engine, fwdCPU *sim.CPU, costs Costs, pool *framepool.Pool) *ServiceLane {

	l := &ServiceLane{id: id, eng: shard, cpu: cpu, quantum: laneQuantum, head: -1}
	cpu.SetEngine(shard)
	l.ds = newDrainState(pool, shard, dev, br.NewLane(fwdCPU))
	l.demux = dom.NewDemux(cpu, costs.WakeLatency)
	l.worker = sim.NewTask(shard, cpu, fmt.Sprintf("netback/lane%d", id),
		costs.WakeLatency, l.round)
	return l
}

// ID returns the lane index.
func (l *ServiceLane) ID() int { return l.id }

// Members returns how many tenant queues have joined the lane's demux.
func (l *ServiceLane) Members() int { return l.demux.Members() }

// Rounds returns how many DRR rounds the worker has executed.
func (l *ServiceLane) Rounds() uint64 { return l.rounds }

// DemuxStats reports the lane's doorbell batching: scans executed and
// member doorbells absorbed into them.
func (l *ServiceLane) DemuxStats() (scans, marks uint64) { return l.demux.Stats() }

// join assigns q a member slot in the lane slab (recycling departed
// tenants' slots) and returns its index.
func (l *ServiceLane) join(q *vifQueue) int32 {
	var s int32
	if n := len(l.freeSlots); n > 0 {
		s = l.freeSlots[n-1]
		l.freeSlots = l.freeSlots[:n-1]
	} else {
		s = int32(len(l.members))
		l.members = append(l.members, laneMember{}) //kite:alloc-ok slab grows to the member high-water mark
	}
	l.members[s] = laneMember{q: q, next: -1, prev: -1}
	return s
}

// link appends slot s to the active ring's tail (activation order).
//
//kite:hotpath
//kite:ringlink link
func (l *ServiceLane) link(s int32) {
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
//kite:ringlink unlink
func (l *ServiceLane) unlink(s int32) {
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

// detach removes a departing tenant's queue from the lane: its doorbell
// leaves the demux group, any spot in the current DRR round is forfeited
// in O(1), and its slab slot returns to the free list. Runs during
// VIF.Shutdown, before the queue's port closes — a churning fleet must not
// pin one dead member slot per departure.
func (l *ServiceLane) detach(q *vifQueue) {
	l.demux.Leave(q.port)
	s := q.laneSlot
	if s < 0 {
		return
	}
	if l.members[s].next >= 0 {
		l.unlink(s)
	}
	l.members[s] = laneMember{next: -1, prev: -1}
	l.freeSlots = append(l.freeSlots, s)
	q.laneSlot = -1
}

// activate links q into the DRR round (if not already there) in O(1) and
// wakes the worker.
//
//kite:hotpath
func (l *ServiceLane) activate(q *vifQueue) {
	if l.members[q.laneSlot].next < 0 {
		l.link(q.laneSlot)
	}
	l.worker.Wake()
}

// round is the worker body: one deficit-round-robin pass over the active
// ring. Each backlogged member earns a quantum, serves its Tx ring then
// its Rx backlog against the accumulated deficit, and stays linked only if
// budget — not work — ran out. Members are visited in activation order;
// the pass touches exactly the backlogged members plus one owed-doorbell
// flush per served member at the end, never the full fleet. Whatever the
// members' Tx drains staged leaves for the bridge in one carrier post.
// Another round is scheduled while anyone still has backlog.
//
//kite:hotpath
func (l *ServiceLane) round() {
	n := l.activeN
	if n == 0 {
		return
	}
	l.rounds++
	served := l.served[:0]
	s := l.head
	for i := 0; i < n; i++ {
		m := &l.members[s]
		next := m.next
		q := m.q
		m.deficit += l.quantum
		used, more := q.drainTxBudget(m.deficit)
		m.deficit -= used
		rx := m.deficit
		if rx < 0 {
			rx = 0
		}
		used, rxMore := q.drainRxBudget(rx)
		m.deficit -= used
		if !more && !rxMore {
			// Drained: leave the round and forfeit the unused deficit, so
			// idle tenants cannot bank credit against future backlogs.
			l.unlink(s)
			m.deficit = 0
		}
		served = append(served, s) //kite:alloc-ok scratch grows to the round high-water mark
		s = next
	}
	l.ds.postTx()
	// Flush completion doorbells once per round across members: each served
	// member raises at most one notification, issued back to back so the
	// event-channel warm path prices the burst.
	for _, s := range served {
		m := &l.members[s]
		if m.notify {
			m.notify = false
			m.q.v.dom.Notify(m.q.port)
		}
	}
	l.served = served[:0]
	if l.activeN > 0 {
		l.worker.Wake()
	}
}

// Package timewheel provides the hashed timer wheel behind the driver
// domain's idle-entry aging (bridge FDB entries, NAT flow bindings). The
// naive implementation of "evict everything idle longer than maxIdle" is a
// full-table sweep — O(table) per call, which at fleet scale means every
// aging tick pays for hundreds of guests' worth of perfectly healthy
// entries. The wheel makes aging O(active churn): insert and refresh are
// O(1), and an aging pass touches only the entries whose last activity has
// actually fallen behind the idle cutoff.
//
// The wheel is lazy, keyed on *last activity* rather than deadline: a node
// sits in the bucket of the tick its entry was last seen in, and refreshing
// an entry touches only the caller's own lastSeen field — the wheel is not
// consulted on the data path at all. An aging pass (Advance) drains every
// bucket up to the idle cutoff and probes each node against the caller's
// live table: entries that were refreshed since their node was queued simply
// requeue at their true last-activity tick, entries that are genuinely idle
// expire, and nodes orphaned by deletion or slot reuse are reaped. Because
// the probe re-checks exact timestamps, the set of entries an Advance evicts
// is identical to what a full sweep with the same cutoff would evict — the
// wheel changes the cost, not the semantics — and maxIdle may differ from
// call to call.
//
// Nodes live in a freelist slab; steady state allocates nothing. All state
// is owned by a single simulation goroutine (determinism: bucket drain order
// is insertion order, which is simulation order).
package timewheel

import "kite/internal/sim"

// Handle names one wheel node. Callers store the handle in their table
// entry and compare it in the probe callback: a node whose handle no longer
// matches its entry is an orphan from a deleted or recycled slot, and the
// wheel reaps it.
type Handle int32

// None is the null handle (no node bound).
const None Handle = -1

// Gone is returned by a probe callback to report that the node's entry no
// longer exists; the wheel frees the node.
const Gone sim.Time = -1 << 62

// Wheel is a hashed timer wheel over uint64 keys.
type Wheel struct {
	gran sim.Time
	mask int64
	hand int64 // next tick Advance will process

	buckets []Handle // head of each bucket's singly-linked node list

	// Node slab: parallel arrays indexed by Handle, freelist-chained.
	next []Handle
	key  []uint64
	free Handle
	live int
}

// New returns a wheel with the given tick granularity and bucket count
// (rounded up to a power of two). Correctness does not depend on either
// value — probes re-check exact timestamps — only the amortization does:
// a rotation (gran × buckets) should comfortably exceed the longest idle
// cutoff the caller ages with, so healthy entries are probed at most once
// per cutoff window.
func New(gran sim.Time, buckets int) *Wheel {
	if gran <= 0 {
		panic("timewheel: granularity must be positive")
	}
	n := 1
	for n < buckets {
		n <<= 1
	}
	w := &Wheel{gran: gran, mask: int64(n - 1), free: None}
	w.buckets = make([]Handle, n)
	for i := range w.buckets {
		w.buckets[i] = None
	}
	return w
}

// Len returns the number of live nodes (including not-yet-reaped orphans).
func (w *Wheel) Len() int { return w.live }

// Add queues a node for key, last active at seen, and returns its handle.
// O(1); allocates only when the slab high-water mark grows.
//
//kite:hotpath
func (w *Wheel) Add(key uint64, seen sim.Time) Handle {
	h := w.alloc()
	w.key[h] = key
	w.link(h, seen)
	w.live++
	return h
}

// alloc takes a node off the freelist, growing the slab when empty. The
// caller owes the fresh handle a link (or a release); TestWheelMatchesSweep
// holds the wheel to a full-sweep model that a dropped one diverges from.
func (w *Wheel) alloc() Handle {
	h := w.free
	if h != None {
		w.free = w.next[h]
		return h
	}
	h = Handle(len(w.next))
	w.next = append(w.next, None) //kite:alloc-ok slab growth to the table high-water mark
	w.key = append(w.key, 0)      //kite:alloc-ok slab growth to the table high-water mark
	return h
}

// link pushes node h onto the bucket of seen's tick.
//
//kite:hotpath
func (w *Wheel) link(h Handle, seen sim.Time) {
	b := (int64(seen) / int64(w.gran)) & w.mask
	w.next[h] = w.buckets[b]
	w.buckets[b] = h
}

// release returns node h to the freelist.
func (w *Wheel) release(h Handle) {
	w.next[h] = w.free
	w.free = h
	w.live--
}

// Advance ages the table: it processes every tick from the previous pass up
// to cutoff (entries last active at or before cutoff are due), probing each
// drained node. probe returns the entry's current last-activity time, or
// Gone if the handle no longer matches a live entry. A fresh entry requeues
// at its true tick; an idle one (lastSeen <= cutoff) is freed and then
// reported through expire, in drain order — which is deterministic
// insertion order. The caller must clear its entry's handle before expire
// touches the table (the wheel has already freed the node).
//
//kite:hotpath
func (w *Wheel) Advance(cutoff sim.Time, probe func(h Handle, key uint64) sim.Time, expire func(key uint64)) {
	target := int64(cutoff) / int64(w.gran)
	if target < w.hand {
		return
	}
	// A long-idle wheel needs each bucket visited at most once.
	if target-w.hand >= int64(len(w.buckets)) {
		w.hand = target - int64(len(w.buckets)) + 1
	}
	for t := w.hand; t <= target; t++ {
		b := t & w.mask
		// Detach the whole bucket first: requeues during the drain may land
		// back in this very bucket (same tick, or a future rotation of it)
		// and must wait for the next pass.
		h := w.buckets[b]
		w.buckets[b] = None
		for h != None {
			nxt := w.next[h]
			key := w.key[h]
			seen := probe(h, key)
			switch {
			case seen == Gone:
				w.release(h)
			case seen <= cutoff:
				w.release(h)
				expire(key)
			default:
				w.link(h, seen)
			}
			h = nxt
		}
	}
	// Re-process the boundary tick next time: a node requeued into it
	// during this pass (refreshed within the cutoff granule) must still be
	// probed by the next pass rather than waiting a full rotation.
	w.hand = target
}

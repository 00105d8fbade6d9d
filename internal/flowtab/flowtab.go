// Package flowtab is the driver domain's one keyed table: the bridge's
// forwarding database and the NAT translator's flow table are its two
// instantiations.
//
// A single Go map would give the same O(1) lookup, but its buckets allocate
// on growth mid-traffic and its iteration order is nondeterministic
// (poisonous for the byte-identical summaries). Instead a Table is one slab
// of records with an intrusive free list, plus an open-addressing index of
// slab positions probed linearly from a Toeplitz hash of the key (the hash
// family RSS steering already trusts, netpkt.RSS) at no more than 3/4 load,
// with backward-shift deletion. Records are reused in place, so a table
// churning through tenants reaches a high-water mark and never allocates
// again; slab positions are stable for a record's lifetime, which is what
// lets a caller hold a Ref to a record (NAT's reverse port table). Lookup
// and Insert in steady state touch one index run and one record and never
// allocate; every walk (Each, Expire) is in slab order.
//
// The caller hashes: it pads its key into the 12-byte Toeplitz window, asks
// the table's Hash for the 32 bits, and passes them with the key. That keeps
// the one per-key-type step a plain inlinable function at the call site
// instead of a callback on the lookup path, and lets a record be removed by
// its cached hash without re-deriving anything.
package flowtab

import (
	"kite/internal/netpkt"
	"kite/internal/sim"
)

const (
	// minSlots is the index's initial capacity; power of two.
	minSlots = 64
	// never is the floor of an empty table.
	never = sim.Time(1<<63 - 1)
)

// Entry is one record. Key is fixed at Insert; Val and Seen are the
// caller's to write — refreshing Seen on the data path is all it takes to
// keep an entry alive. Seen may only move forward: Expire's floor is a
// lower bound on it.
type Entry[K comparable, V any] struct {
	Key  K
	Val  V
	Seen sim.Time // last activity; Expire evicts on it

	hash uint32 // cached: index growth and deletion never re-derive it
	used bool
	next int32 // free-list link (slab position), -1 terminates
}

// Ref names a live record by slab position + 1; zero means no record. A
// Ref stays valid until its record is removed.
type Ref int32

// Table is the store: one slab + one open-addressing index. Index slots
// hold slab position + 1 (0 means empty).
type Table[K comparable, V any] struct {
	rss      *netpkt.RSS
	index    []int32
	slab     []Entry[K, V]
	freeHead int32
	count    int
	// floor is at or below every live record's Seen: Insert lowers it,
	// each sweep recomputes it. An Expire whose cutoff lies below it can
	// drop nothing and returns without a sweep, so aging on every learn
	// costs O(1) until something has really been idle that long.
	floor sim.Time
}

// New returns an empty table. seed keys the Toeplitz tables: fixed per
// table, so every run spreads keys identically, and distinct per table, so
// collisions in one do not imply collisions in another.
func New[K comparable, V any](seed uint64) *Table[K, V] {
	return &Table[K, V]{rss: netpkt.NewRSS(seed), freeHead: -1, floor: never}
}

// Hash evaluates the table's Toeplitz hash over a key padded into the
// 12-byte window: the h every keyed operation takes. Its low bits start
// the probe.
//
//kite:hotpath
func (t *Table[K, V]) Hash(in *[12]byte) uint32 { return t.rss.Hash12(in) }

// Len returns the number of live records.
func (t *Table[K, V]) Len() int { return t.count }

// Cap returns the number of records the slab holds, live or free — the
// table's memory high-water mark.
func (t *Table[K, V]) Cap() int { return len(t.slab) }

// Lookup returns the live record of key (hashing to h), or nil. One probe
// run; no allocation.
//
//kite:hotpath
func (t *Table[K, V]) Lookup(h uint32, key K) *Entry[K, V] {
	if len(t.index) == 0 {
		return nil
	}
	mask := uint32(len(t.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		pos := t.index[i]
		if pos == 0 {
			return nil
		}
		if e := &t.slab[pos-1]; e.Key == key {
			return e
		}
	}
}

// Insert claims a record for key (hashing to h; it must not be present),
// last active now, and returns it with its Ref. The record comes off the
// free list when one is there; otherwise the slab grows (amortized to the
// churn high-water mark).
//
//kite:hotpath
func (t *Table[K, V]) Insert(h uint32, key K, now sim.Time) (*Entry[K, V], Ref) {
	var pos int32
	if t.freeHead >= 0 {
		pos = t.freeHead
		t.freeHead = t.slab[pos].next
	} else {
		pos = int32(len(t.slab))
		t.slab = append(t.slab, Entry[K, V]{}) //kite:alloc-ok slab grows to the churn high-water mark, then the free list recycles
	}
	e := &t.slab[pos]
	*e = Entry[K, V]{Key: key, Seen: now, hash: h, used: true, next: -1}
	t.floor = min(t.floor, now)
	if (t.count+1)*4 > len(t.index)*3 {
		t.growIndex()
	}
	mask := uint32(len(t.index) - 1)
	i := h & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = pos + 1
	t.count++
	return e, Ref(pos + 1)
}

// growIndex doubles the index (or seeds it) and reinserts every live
// position by cached hash.
func (t *Table[K, V]) growIndex() {
	old := t.index
	n := max(2*len(old), minSlots)
	t.index = make([]int32, n) //kite:alloc-ok amortized index doubling
	mask := uint32(n - 1)
	for _, pos := range old {
		if pos == 0 {
			continue
		}
		j := t.slab[pos-1].hash & mask
		for t.index[j] != 0 {
			j = (j + 1) & mask
		}
		t.index[j] = pos
	}
}

// Get resolves a Ref; nil for the zero Ref.
//
//kite:hotpath
func (t *Table[K, V]) Get(r Ref) *Entry[K, V] {
	if r == 0 {
		return nil
	}
	return &t.slab[r-1]
}

// Remove deletes the live record e — backward-shift in the index, record
// onto the free list. Nothing is re-hashed: the record caches its hash.
func (t *Table[K, V]) Remove(e *Entry[K, V]) {
	mask := uint32(len(t.index) - 1)
	i := e.hash & mask
	for &t.slab[t.index[i]-1] != e {
		i = (i + 1) & mask
	}
	e.used = false
	e.next = t.freeHead
	t.freeHead = t.index[i] - 1
	t.deleteIndexAt(i)
	t.count--
}

// deleteIndexAt empties index slot i by backward-shift deletion: later
// positions in the probe run slide back over the hole, so no tombstones
// accumulate and probe runs stay short forever.
func (t *Table[K, V]) deleteIndexAt(i uint32) {
	mask := uint32(len(t.index) - 1)
	hole := i
	for {
		t.index[hole] = 0
		j := hole
		for {
			j = (j + 1) & mask
			pos := t.index[j]
			if pos == 0 {
				return
			}
			// pos may move into the hole only if its home slot is at or
			// before the hole in cyclic probe order — otherwise the move
			// would strand it ahead of its home.
			home := t.slab[pos-1].hash & mask
			if (j-home)&mask >= (j-hole)&mask {
				t.index[hole] = pos
				hole = j
				break
			}
		}
	}
}

// Each calls fn on every live record in slab order. fn may Remove the
// record it was handed; it must not Insert.
func (t *Table[K, V]) Each(fn func(*Entry[K, V])) {
	for i := range t.slab {
		if e := &t.slab[i]; e.used {
			fn(e)
		}
	}
}

// Expire removes every record idle longer than maxIdle and returns how
// many went, calling dead (if not nil) on each before it is unlinked, in
// slab order. A cutoff below the floor returns at once; otherwise one
// sweep drops the idle records and re-derives the floor from the rest.
func (t *Table[K, V]) Expire(now, maxIdle sim.Time, dead func(*Entry[K, V])) int {
	cutoff := now - maxIdle - 1
	if cutoff < t.floor {
		return 0
	}
	dropped := 0
	t.floor = never
	for i := range t.slab {
		e := &t.slab[i]
		switch {
		case !e.used:
		case e.Seen > cutoff:
			t.floor = min(t.floor, e.Seen)
		default:
			if dead != nil {
				dead(e)
			}
			t.Remove(e)
			dropped++
		}
	}
	return dropped
}

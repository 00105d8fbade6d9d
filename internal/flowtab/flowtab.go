// Package flowtab is the driver domain's one keyed table: the bridge's
// forwarding database and the NAT translator's flow table are its two
// instantiations.
//
// A single Go map would give the same O(1) lookup, but its buckets allocate
// on growth mid-traffic, its iteration order is nondeterministic (poisonous
// for the byte-identical summaries), and a fleet's worth of entries all
// contend on one structure. Instead a Table is a power-of-two array of
// shards — selected by the top bits of a Toeplitz hash over the key (the
// hash family RSS steering already trusts, netpkt.RSS) — each shard a slab
// of records with an intrusive free list, plus an open-addressing index of
// slab positions probed linearly on the low hash bits at no more than 3/4
// load, with backward-shift deletion. Records are reused in place, so a
// table churning through tenants reaches a high-water mark and never
// allocates again; slab positions are stable for a record's lifetime, which
// is what lets a caller hold a packed Ref to a record (NAT's reverse port
// table) and lets the aging wheel name a record without re-hashing its key.
// Lookup and Insert in steady state touch one index run and one record and
// never allocate; every walk (Each, Expire) is in a deterministic order.
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
	"kite/internal/timewheel"
)

const (
	shardBits = 3
	shardCnt  = 1 << shardBits
	// minSlots is a shard's initial index capacity; power of two.
	minSlots = 64
	// wheelGran × wheelBuckets is the aging wheel's rotation; idle cutoffs
	// well inside one rotation probe each healthy entry at most once per
	// cutoff.
	wheelGran    = sim.Second
	wheelBuckets = 256
)

// Entry is one record. Key is fixed at Insert; Val and Seen are the
// caller's to write — refreshing Seen on the data path is all it takes to
// keep an entry alive, the wheel is not consulted.
type Entry[K comparable, V any] struct {
	Key  K
	Val  V
	Seen sim.Time // last activity; Expire evicts on it

	hash uint32 // cached: index growth and deletion never re-derive it
	used bool
	next int32 // free-list link (slab position), -1 terminates
	// node is the record's aging-wheel node; a freed or recycled record
	// orphans it and the next Expire reaps it by handle mismatch.
	node timewheel.Handle
}

// shard is one slab + open-addressing index. Index slots hold slab
// position + 1 (0 means empty).
type shard[K comparable, V any] struct {
	index    []int32
	slab     []Entry[K, V]
	freeHead int32
	count    int
}

// Ref names a live record by (shard, slab position): shard in the top
// bits, position + 1 in the rest; zero means no record. A Ref stays valid
// until its record is removed.
type Ref int32

// Table is the sharded store.
type Table[K comparable, V any] struct {
	rss    netpkt.RSS
	shards [shardCnt]shard[K, V]
	// wheel ages records by last activity: one O(1) node insert per record,
	// no wheel traffic on refresh, and an Expire costs O(records actually
	// due) instead of a full sweep.
	wheel *timewheel.Wheel
}

// New returns an empty table. seed keys the Toeplitz tables: fixed per
// table, so every run spreads keys identically, and distinct per table, so
// collisions in one do not imply collisions in another.
func New[K comparable, V any](seed uint64) *Table[K, V] {
	t := &Table[K, V]{rss: netpkt.NewRSS(seed), wheel: timewheel.New(wheelGran, wheelBuckets)}
	for i := range t.shards {
		t.shards[i].freeHead = -1
	}
	return t
}

// Hash evaluates the table's Toeplitz hash over a key padded into the
// 12-byte window: the h every keyed operation takes. Its top bits select
// the shard and its low bits start the probe, so shard choice and slot
// choice are decorrelated.
//
//kite:hotpath
func (t *Table[K, V]) Hash(in *[12]byte) uint32 { return t.rss.Hash12(in) }

// Len returns the number of live records.
func (t *Table[K, V]) Len() (n int) {
	for i := range t.shards {
		n += t.shards[i].count
	}
	return n
}

// Cap returns the number of records the slabs hold, live or free — the
// table's memory high-water mark.
func (t *Table[K, V]) Cap() (n int) {
	for i := range t.shards {
		n += len(t.shards[i].slab)
	}
	return n
}

// Lookup returns the live record of key (hashing to h), or nil. One probe
// run in one shard; no allocation.
//
//kite:hotpath
func (t *Table[K, V]) Lookup(h uint32, key K) *Entry[K, V] {
	s := &t.shards[h>>(32-shardBits)]
	if len(s.index) == 0 {
		return nil
	}
	mask := uint32(len(s.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		pos := s.index[i]
		if pos == 0 {
			return nil
		}
		if e := &s.slab[pos-1]; e.Key == key {
			return e
		}
	}
}

// Insert claims a record for key (hashing to h; it must not be present),
// last active now, and returns it with its Ref. The record comes off the
// shard's free list when one is there; otherwise the slab grows (amortized
// to the churn high-water mark).
//
//kite:hotpath
func (t *Table[K, V]) Insert(h uint32, key K, now sim.Time) (*Entry[K, V], Ref) {
	si := h >> (32 - shardBits)
	s := &t.shards[si]
	var pos int32
	if s.freeHead >= 0 {
		pos = s.freeHead
		s.freeHead = s.slab[pos].next
	} else {
		pos = int32(len(s.slab))
		s.slab = append(s.slab, Entry[K, V]{}) //kite:alloc-ok slab grows to the churn high-water mark, then the free list recycles
	}
	ref := Ref(int32(si)<<24 | (pos + 1))
	e := &s.slab[pos]
	*e = Entry[K, V]{Key: key, Seen: now, hash: h, used: true, next: -1,
		node: t.wheel.Add(uint64(ref), now)}
	if (s.count+1)*4 > len(s.index)*3 {
		s.growIndex()
	}
	mask := uint32(len(s.index) - 1)
	i := h & mask
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = pos + 1
	s.count++
	return e, ref
}

// growIndex doubles the shard's index (or seeds it) and reinserts every
// live position by cached hash.
func (s *shard[K, V]) growIndex() {
	old := s.index
	n := max(2*len(old), minSlots)
	s.index = make([]int32, n) //kite:alloc-ok amortized index doubling
	mask := uint32(n - 1)
	for _, pos := range old {
		if pos == 0 {
			continue
		}
		j := s.slab[pos-1].hash & mask
		for s.index[j] != 0 {
			j = (j + 1) & mask
		}
		s.index[j] = pos
	}
}

// Get resolves a Ref; nil for the zero Ref.
//
//kite:hotpath
func (t *Table[K, V]) Get(r Ref) *Entry[K, V] {
	if r == 0 {
		return nil
	}
	return &t.shards[r>>24].slab[r&0xffffff-1]
}

// Remove deletes the live record e — backward-shift in the index, record
// onto the shard's free list. Nothing is re-hashed: the record caches its
// hash.
func (t *Table[K, V]) Remove(e *Entry[K, V]) {
	s := &t.shards[e.hash>>(32-shardBits)]
	mask := uint32(len(s.index) - 1)
	i := e.hash & mask
	for &s.slab[s.index[i]-1] != e {
		i = (i + 1) & mask
	}
	e.used = false
	e.next = s.freeHead
	s.freeHead = s.index[i] - 1
	s.deleteIndexAt(i)
	s.count--
}

// deleteIndexAt empties index slot i by backward-shift deletion: later
// positions in the probe run slide back over the hole, so no tombstones
// accumulate and probe runs stay short forever.
func (s *shard[K, V]) deleteIndexAt(i uint32) {
	mask := uint32(len(s.index) - 1)
	hole := i
	for {
		s.index[hole] = 0
		j := hole
		for {
			j = (j + 1) & mask
			pos := s.index[j]
			if pos == 0 {
				return
			}
			// pos may move into the hole only if its home slot is at or
			// before the hole in cyclic probe order — otherwise the move
			// would strand it ahead of its home.
			home := s.slab[pos-1].hash & mask
			if (j-home)&mask >= (j-hole)&mask {
				s.index[hole] = pos
				hole = j
				break
			}
		}
	}
}

// Each calls fn on every live record, shard by shard in slab order. fn may
// Remove the record it was handed; it must not Insert.
func (t *Table[K, V]) Each(fn func(*Entry[K, V])) {
	for si := range t.shards {
		s := &t.shards[si]
		for i := range s.slab {
			if e := &s.slab[i]; e.used {
				fn(e)
			}
		}
	}
}

// Expire removes every record idle longer than maxIdle and returns how
// many went, calling dead (if not nil) on each before it is unlinked. The
// wheel pass probes only records whose last activity has fallen behind the
// cutoff (plus orphaned nodes that came due), so a table of busy records
// pays nothing here; the evicted set is exactly what a full sweep would
// drop, in deterministic node order.
func (t *Table[K, V]) Expire(now, maxIdle sim.Time, dead func(*Entry[K, V])) int {
	dropped := 0
	t.wheel.Advance(now-maxIdle-1,
		func(h timewheel.Handle, ref uint64) sim.Time {
			e := t.Get(Ref(ref))
			if !e.used || e.node != h {
				return timewheel.Gone
			}
			return e.Seen
		},
		func(ref uint64) {
			e := t.Get(Ref(ref))
			if dead != nil {
				dead(e)
			}
			t.Remove(e)
			dropped++
		})
	return dropped
}

package flowtab

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"kite/internal/sim"
)

// spread pads a key into the Toeplitz window like the real callers do;
// clump maps every key to one input, so the whole table lands on one home
// slot and every operation runs through one long probe run.
func spread(k uint32) (in [12]byte) {
	binary.BigEndian.PutUint32(in[0:4], k)
	return in
}
func clump(uint32) (in [12]byte) { return in }

// modelEnt is what the reference map remembers of one record.
type modelEnt struct {
	val  int
	seen sim.Time
	ref  Ref
}

// harness runs one op program against a Table and a Go map side by side.
type harness struct {
	t      *testing.T
	tab    *Table[uint32, int]
	hashIn func(uint32) [12]byte
	model  map[uint32]*modelEnt
	now    sim.Time
}

func newHarness(t *testing.T, hashIn func(uint32) [12]byte) *harness {
	return &harness{t: t, tab: New[uint32, int](0x7e57_0001), hashIn: hashIn, model: make(map[uint32]*modelEnt)}
}

// hashOf is the caller's half of every keyed operation.
func hashOf(tab *Table[uint32, int], hashIn func(uint32) [12]byte, k uint32) uint32 {
	in := hashIn(k)
	return tab.Hash(&in)
}

func (h *harness) lookup(k uint32) *Entry[uint32, int] {
	return h.tab.Lookup(hashOf(h.tab, h.hashIn, k), k)
}

// run interprets prog two bytes at a time — an op and its argument — and
// checks the table against the model after every op.
func (h *harness) run(prog []byte) {
	t := h.t
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%7, prog[pc+1]
		key := uint32(arg)
		switch op {
		case 0, 1: // learn: refresh if present, else insert
			if e := h.lookup(key); e != nil {
				e.Val, e.Seen = pc, h.now
				h.model[key].val, h.model[key].seen = pc, h.now
			} else {
				e, ref := h.tab.Insert(hashOf(h.tab, h.hashIn, key), key, h.now)
				e.Val = pc
				if h.tab.Get(ref) != e {
					t.Fatalf("pc %d: Insert(%d) returned a ref that resolves elsewhere", pc, key)
				}
				h.model[key] = &modelEnt{val: pc, seen: h.now, ref: ref}
			}
		case 2: // lookup
			e, m := h.lookup(key), h.model[key]
			if (e == nil) != (m == nil) || (e != nil && (e.Val != m.val || e.Seen != m.seen)) {
				t.Fatalf("pc %d: Lookup(%d) = %+v, model %+v", pc, key, e, m)
			}
		case 3: // remove
			e := h.lookup(key)
			if _, had := h.model[key]; (e != nil) != had {
				t.Fatalf("pc %d: Lookup(%d) = %+v, model has it: %v", pc, key, e, had)
			}
			if e != nil {
				h.tab.Remove(e)
				delete(h.model, key)
			}
		case 4: // time passes: up to 63.5 s in half seconds, plus 1 ns on an
			// odd arg, so an idle time can land exactly on a cutoff
			h.now += sim.Time(arg>>1)*sim.Second/2 + sim.Time(arg&1)
		case 5: // age against a full sweep of the model
			maxIdle := sim.Time(arg%32) * sim.Second
			want := map[uint32]bool{}
			for k, m := range h.model {
				if m.seen <= h.now-maxIdle-1 {
					want[k] = true
				}
			}
			n := h.tab.Expire(h.now, maxIdle, func(e *Entry[uint32, int]) {
				if !want[e.Key] {
					t.Fatalf("pc %d: Expire(%v idle) dropped key %d, last seen %v at %v: a sweep would keep it",
						pc, maxIdle, e.Key, e.Seen, h.now)
				}
				delete(want, e.Key)
				delete(h.model, e.Key)
			})
			if len(want) != 0 {
				t.Fatalf("pc %d: Expire(%v idle) at %v dropped %d and kept %v that a sweep would drop", pc, maxIdle, h.now, n, want)
			}
		case 6: // drop every record whose key shares arg's low 2 bits, mid-walk
			h.tab.Each(func(e *Entry[uint32, int]) {
				if e.Key&3 == key&3 {
					delete(h.model, e.Key)
					h.tab.Remove(e)
				}
			})
		}
		h.check(pc)
	}
}

// check compares the whole table with the model, holds the aging floor at
// or below every live record's Seen, and walks the index: each position
// sits in an unbroken probe run from its home slot (no tombstones, nothing
// stranded ahead of its home), the index holds exactly the live records,
// and every record not in it is on the free list.
func (h *harness) check(pc int) {
	t := h.t
	if h.tab.Len() != len(h.model) {
		t.Fatalf("pc %d: Len = %d, model %d", pc, h.tab.Len(), len(h.model))
	}
	for k, m := range h.model {
		e := h.tab.Get(m.ref)
		if e == nil || !e.used || e.Key != k || e.Val != m.val {
			t.Fatalf("pc %d: ref of key %d resolves to %+v, model %+v", pc, k, e, m)
		}
	}
	seen := 0
	h.tab.Each(func(e *Entry[uint32, int]) {
		seen++
		if h.model[e.Key] == nil {
			t.Fatalf("pc %d: Each visits key %d, which the model does not hold", pc, e.Key)
		}
		if e.Seen < h.tab.floor {
			t.Fatalf("pc %d: key %d last seen %v, below the aging floor %v", pc, e.Key, e.Seen, h.tab.floor)
		}
	})
	if seen != len(h.model) {
		t.Fatalf("pc %d: Each visited %d records, model holds %d", pc, seen, len(h.model))
	}
	checkShape(t, h.tab, pc)
}

// checkShape walks the index and the free list (see harness.check).
func checkShape(t *testing.T, tab *Table[uint32, int], pc int) {
	filled := 0
	mask := uint32(len(tab.index) - 1)
	for i, pos := range tab.index {
		if pos == 0 {
			continue
		}
		filled++
		e := &tab.slab[pos-1]
		if !e.used {
			t.Fatalf("pc %d: index slot %d names a freed record", pc, i)
		}
		for j := e.hash & mask; j != uint32(i); j = (j + 1) & mask {
			if tab.index[j] == 0 {
				t.Fatalf("pc %d: key %d at slot %d is cut off from its home slot %d by the hole at %d",
					pc, e.Key, i, e.hash&mask, j)
			}
		}
	}
	free := 0
	for p := tab.freeHead; p >= 0; p = tab.slab[p].next {
		free++
	}
	if filled != tab.count || filled+free != len(tab.slab) {
		t.Fatalf("pc %d: %d index slots filled, count %d, %d free of %d records",
			pc, filled, tab.count, free, len(tab.slab))
	}
	if tab.count*4 > len(tab.index)*3 {
		t.Fatalf("pc %d: %d records in %d slots: over 3/4 load", pc, tab.count, len(tab.index))
	}
}

// randomProg is a seeded op mix heavy enough on inserts to grow indexes and
// on time and aging to take records through many sweeps.
func randomProg(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		prog = append(prog, byte(rng.Intn(7)), byte(rng.Intn(256)))
	}
	return prog
}

// flowtabScenarios are the named corner cases; they also seed the fuzzer
// (the checked-in corpus in testdata/fuzz/FuzzFlowtab holds random ones).
var flowtabScenarios = map[string][]byte{
	// Fill a run, delete from its middle, look up what was behind the hole.
	"delete-mid-run": {0, 1, 0, 2, 0, 3, 0, 4, 3, 2, 2, 3, 2, 4, 3, 1, 2, 3, 2, 4},
	// A record refreshed after its insert must survive the sweep that
	// would have dropped it by its insert time, and go in the one after it
	// went idle.
	"refresh-then-idle": {0, 9, 4, 40, 0, 9, 5, 5, 2, 9, 4, 40, 5, 5, 2, 9},
	// Remove and re-learn a key between sweeps: the new record reuses the
	// old slot and ages from its own insert.
	"orphan-reaped": {0, 7, 3, 7, 0, 7, 4, 80, 5, 31, 2, 7, 4, 200, 5, 1, 2, 7},
	// Age everything, refill, age again: records and slots recycle.
	"drain-refill": {0, 1, 0, 2, 0, 3, 4, 255, 5, 0, 0, 1, 0, 2, 0, 3, 4, 255, 5, 0},
	// Each removing a quarter of the table from inside the walk.
	"each-removes": {0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 6, 1, 2, 1, 2, 5, 2, 2},
}

// TestFlowtabAgainstMap runs the scenarios and a batch of random programs
// under both hash inputs.
func TestFlowtabAgainstMap(t *testing.T) {
	for name, hashIn := range map[string]func(uint32) [12]byte{"spread": spread, "clump": clump} {
		for sc, prog := range flowtabScenarios {
			t.Run(name+"/"+sc, func(t *testing.T) { newHarness(t, hashIn).run(prog) })
		}
		for seed := int64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%s/random-%d", name, seed), func(t *testing.T) {
				newHarness(t, hashIn).run(randomProg(seed, 3000))
			})
		}
	}
}

// TestRefsStableAcrossGrowth: a Ref keeps naming its record while the
// index doubles (several times) and the slab reallocates under it.
func TestRefsStableAcrossGrowth(t *testing.T) {
	for name, hashIn := range map[string]func(uint32) [12]byte{"spread": spread, "clump": clump} {
		tab := New[uint32, int](1)
		refs := make([]Ref, 5000)
		for k := range refs {
			e, ref := tab.Insert(hashOf(tab, hashIn, uint32(k)), uint32(k), 0)
			e.Val = 3 * k
			refs[k] = ref
			if tab.count*4 > len(tab.index)*3 {
				t.Fatalf("%s: %d records in %d slots: over 3/4 load", name, tab.count, len(tab.index))
			}
		}
		if len(tab.index) < 64*minSlots {
			t.Fatalf("%s: the index never grew past %d slots", name, len(tab.index))
		}
		checkShape(t, tab, len(refs))
		for k, ref := range refs {
			if e := tab.Get(ref); e.Key != uint32(k) || e.Val != 3*k || tab.Lookup(hashOf(tab, hashIn, uint32(k)), uint32(k)) != e {
				t.Fatalf("%s: ref of key %d resolves to %+v", name, k, e)
			}
		}
		if tab.Get(0) != nil {
			t.Fatalf("%s: the zero Ref resolved", name)
		}
	}
}

// TestLookupAllocatesNothing: the data-path operations — lookup, refresh,
// resolving a Ref — stay off the heap.
func TestLookupAllocatesNothing(t *testing.T) {
	tab := New[uint32, int](1)
	var refs [1024]Ref
	for k := range refs {
		_, refs[k] = tab.Insert(hashOf(tab, spread, uint32(k)), uint32(k), 0)
	}
	k := uint32(0)
	if n := testing.AllocsPerRun(200, func() {
		k = (k + 1) % 1024
		tab.Lookup(hashOf(tab, spread, k), k).Seen = 1
		tab.Get(refs[k]).Val++
	}); n != 0 {
		t.Fatalf("lookup allocates %.1f/op", n)
	}
}

// FuzzFlowtab feeds arbitrary programs to the same harness, under the
// degenerate hash input (the longest probe runs).
func FuzzFlowtab(f *testing.F) {
	for _, prog := range flowtabScenarios {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		newHarness(t, clump).run(prog)
	})
}

package sim

import (
	"fmt"
	"sort"
	"testing"
)

// priLate is a second rank, used by tests only: the tree posts PriData
// everywhere, but priority is still part of the order's key, so the tests
// keep posting at two ranks to hold its place in the order.
const priLate uint8 = 200

// mergeHarness posts through Engine.Post and holds the reference model: per
// destination, every post made and not yet consumed. There is no barrier to
// wait for — a post lands in its destination's inbox as it is made — so after
// every post each inbox from inboxHead on must equal the model fully sorted
// by postRec.before.
type mergeHarness struct {
	t       *testing.T
	c       *Cluster
	pending [][]postRec // per destination, in post order until check sorts it
	ran     []postRec   // handler log: key of each consumed post
}

type mergeTag struct {
	h   *mergeHarness
	key postRec
}

func newMergeHarness(t *testing.T, shards int) *mergeHarness {
	return &mergeHarness{t: t, c: NewCluster(shards, 1, 1), pending: make([][]postRec, shards)}
}

func onData(a any) {
	tag := a.(*mergeTag)
	tag.h.ran = append(tag.h.ran, tag.key)
}

// post makes one post the way a handler running on src at time now would,
// then checks every inbox.
func (h *mergeHarness) post(src, dst int, now, delay Time, late bool) {
	h.t.Helper()
	e := h.c.Shard(src)
	if now > e.now {
		e.now = now // a shard's clock only moves forward
	}
	tag := &mergeTag{h: h}
	pri := PriData
	if late {
		pri = priLate
	}
	e.Post(h.c.Shard(dst), delay, pri, onData, tag)
	tag.key = postRec{at: e.now + delay, pri: pri, src: uint16(src), seq: e.postSeq}
	h.pending[dst] = append(h.pending[dst], tag.key)
	h.check()
}

func sameKey(a, b *postRec) bool {
	return a.at == b.at && a.pri == b.pri && a.src == b.src && a.seq == b.seq
}

// check holds every inbox to the model: the unconsumed part in full-sort
// order, the consumed prefix holding no reference.
func (h *mergeHarness) check() {
	t := h.t
	t.Helper()
	for di, dst := range h.c.shards {
		want := h.pending[di]
		sort.Slice(want, func(i, j int) bool { return want[i].before(&want[j]) })
		got := dst.inbox[dst.inboxHead:]
		if len(got) != len(want) {
			t.Fatalf("shard %d inbox holds %d posts, want %d", di, len(got), len(want))
		}
		for i := range want {
			if !sameKey(&got[i], &want[i]) {
				t.Fatalf("shard %d inbox[%d] = (at %d pri %d src %d seq %d), want (at %d pri %d src %d seq %d)",
					di, i, got[i].at, got[i].pri, got[i].src, got[i].seq, want[i].at, want[i].pri, want[i].src, want[i].seq)
			}
		}
		for i := 0; i < dst.inboxHead; i++ {
			if dst.inbox[i].fn != nil || dst.inbox[i].arg != nil {
				t.Fatalf("shard %d consumed inbox slot %d still holds a reference", di, i)
			}
		}
	}
}

// consume runs up to n posts of dst's inbox through the real consumer and
// checks they come off in model order.
func (h *mergeHarness) consume(dst, n int) {
	t := h.t
	t.Helper()
	e := h.c.Shard(dst)
	want := h.pending[dst] // sorted by the last check
	if n > len(want) {
		n = len(want)
	}
	h.ran = h.ran[:0]
	for i := 0; i < n; i++ {
		if !e.stepLocal(timeMax) {
			t.Fatalf("shard %d: inbox ran dry after %d of %d posts", dst, i, n)
		}
	}
	for i := 0; i < n; i++ {
		if !sameKey(&h.ran[i], &want[i]) {
			t.Fatalf("shard %d consumed post %d out of order", dst, i)
		}
	}
	h.pending[dst] = append(want[:0], want[n:]...)
}

// runMergeProgram interprets prog as rounds of (posts..., consumption). Byte layout per round: a post count, three bytes per post
// (source and destination, clock advance and delay, flags — the top flag bit
// posts at priLate), then one byte saying how much of which inbox to consume.
func runMergeProgram(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	shards := 2 + int(prog[0])%5
	h := newMergeHarness(t, shards)
	now := Time(0)
	for pc := 1; pc < len(prog); {
		posts := int(prog[pc])
		pc++
		for i := 0; i < posts && pc+3 <= len(prog); i++ {
			a, b, f := prog[pc], prog[pc+1], prog[pc+2]
			pc += 3
			src := int(a) % shards
			dst := int(a>>4) % shards
			if dst == src {
				dst = (dst + 1) % shards
			}
			now += Time(b >> 6)              // 0..3: equal timestamps across sources are common
			delay := 1 + Time(b&0x3f)>>(f&3) // varied delays put a source's own posts out of order
			h.post(src, dst, now, delay, f&0x80 != 0)
		}
		if pc < len(prog) {
			k := prog[pc]
			pc++
			// Mostly shard 0, so its consumed prefix crosses the 64-slot
			// compaction threshold in long programs.
			dst := 0
			if k&0x80 != 0 {
				dst = int(k>>4) % shards
			}
			h.consume(dst, int(k&0x7f))
			h.check()
		}
	}
}

// mergeSeeds are programs built to reach the insertion's corners; the fuzz
// corpus in testdata/fuzz/FuzzMergeOrder holds further ones (a reversed
// single source, all-equal timestamps, priLate posts only, fuzzer finds).
func mergeSeeds() [][]byte {
	var seeds [][]byte
	// Five sources interleaving at equal timestamps into shard 0, priLate
	// posts mixed in, then partial consumption on either side of 64 slots.
	for _, eat := range []byte{10, 63, 64, 65, 100} {
		p := []byte{3} // 5 shards
		for round := 0; round < 3; round++ {
			p = append(p, 120)
			for i := 0; i < 120; i++ {
				src := byte(1 + i%4)
				flags := byte(i % 4)
				if i%7 == 0 {
					flags |= 0x80
				}
				p = append(p, src, byte(i*37), flags)
			}
			p = append(p, eat)
		}
		seeds = append(seeds, p)
	}
	// Pseudo-random programs.
	r := NewRand(0x6d65726765)
	for n := 0; n < 8; n++ {
		p := make([]byte, 200+r.Intn(600))
		for i := range p {
			p[i] = byte(r.Uint64())
		}
		seeds = append(seeds, p)
	}
	// A post that sorts before every unconsumed entry lands at inboxHead: a
	// hundred posts from shard 1 mature at t=64, part of them is consumed
	// (short of the compaction threshold, then past it), and shard 2, whose
	// clock is still at zero, posts for t=1.
	for _, eat := range []byte{10, 70} {
		p := []byte{3, 100} // 5 shards
		for i := 0; i < 100; i++ {
			p = append(p, 1, 0x3f, 0)
		}
		seeds = append(seeds, append(p, eat, 1, 2, 0, 0, 0))
	}
	return seeds
}

// TestMergeOrderProperty: whatever the sources posted and however much of
// an inbox was already consumed, every post leaves each inbox exactly as a
// full sort by postRec.before would.
func TestMergeOrderProperty(t *testing.T) {
	for i, p := range mergeSeeds() {
		t.Run(fmt.Sprint(i), func(t *testing.T) { runMergeProgram(t, p) })
	}
	r := NewRand(99)
	for n := 0; n < 200; n++ {
		p := make([]byte, 1+r.Intn(1500))
		for i := range p {
			p[i] = byte(r.Uint64())
		}
		runMergeProgram(t, p)
	}
}

// FuzzMergeOrder feeds arbitrary programs to the same harness.
func FuzzMergeOrder(f *testing.F) {
	for _, p := range mergeSeeds() {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		runMergeProgram(t, prog)
	})
}

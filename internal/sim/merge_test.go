package sim

import (
	"fmt"
	"slices"
	"testing"
)

// mergeRec is one executed handler: the time its shard's clock read, and
// the order key the harness expects it under — its shard and its place
// among the insertions into that shard, counted by the harness itself,
// whether it came as a post or a local Schedule.
type mergeRec struct {
	at    Time
	shard int
	ins   int
}

// less is the cluster's order: (timestamp, shard, insertion), or with
// reversed ties (timestamp, shard descending, insertion descending).
func (r mergeRec) less(o mergeRec, reversed bool) bool {
	switch {
	case r.at != o.at:
		return r.at < o.at
	case r.shard != o.shard:
		return r.shard < o.shard != reversed
	}
	return r.ins < o.ins != reversed
}

// mergeHarness inserts events into a cluster through Post and Schedule,
// steps it, and logs every handler that runs. The reference is a
// brute-force sort of that log: the scheduler must have run everything in
// (timestamp, shard, insertion) order, each tie reversed under ReverseTies.
type mergeHarness struct {
	t        *testing.T
	c        *Cluster
	reversed bool
	ins      []int // insertions per shard
	inserted int
	ran      []mergeRec
}

// mergeTag rides an event: its expected key, and how many follow-ups its
// handler inserts from inside the run.
type mergeTag struct {
	h    *mergeHarness
	rec  mergeRec
	hops int
}

func newMergeHarness(t *testing.T, shards int, reversed bool) *mergeHarness {
	h := &mergeHarness{t: t, c: NewCluster(shards, 1, 1), reversed: reversed, ins: make([]int, shards)}
	if reversed {
		h.c.Shard(0).ReverseTies()
	}
	return h
}

// fired logs tag's event as run now, then makes its follow-up: from a
// handler on shard x at t, alternately a post to x+1 at the minimum delay
// and a direct Schedule onto x+1 at t+1, each of which must bound x's run
// at once.
func (tag *mergeTag) fired() {
	h := tag.h
	e := h.c.Shard(tag.rec.shard)
	rec := tag.rec
	rec.at = e.Now()
	h.ran = append(h.ran, rec)
	if tag.hops == 0 {
		return
	}
	next := (rec.shard + 1) % h.c.Shards()
	if tag.hops%2 == 1 {
		h.post(rec.shard, next, 1, tag.hops-1)
	} else {
		h.schedule(next, e.Now()+1, tag.hops-1)
	}
}

func onData(a any) { a.(*mergeTag).fired() }

// post makes one post from src to dst after delay.
func (h *mergeHarness) post(src, dst int, delay Time, hops int) {
	h.ins[dst]++
	h.inserted++
	tag := &mergeTag{h: h, rec: mergeRec{shard: dst, ins: h.ins[dst]}, hops: hops}
	h.c.Shard(src).Post(h.c.Shard(dst), delay, PriData, onData, tag)
}

// schedule puts a local event on shard at time at.
func (h *mergeHarness) schedule(shard int, at Time, hops int) {
	h.ins[shard]++
	h.inserted++
	tag := &mergeTag{h: h, rec: mergeRec{shard: shard, ins: h.ins[shard]}, hops: hops}
	h.c.Shard(shard).Schedule(at, tag.fired)
}

// step runs up to n events and checks the budget was exact.
func (h *mergeHarness) step(n int) {
	h.t.Helper()
	before := h.c.Processed()
	drained := h.c.RunCapped(uint64(n))
	if ran := h.c.Processed() - before; ran != uint64(n) && !drained {
		h.t.Fatalf("stepping %d events ran %d without draining", n, ran)
	}
}

// check drains the cluster and holds the whole log to its own sort.
func (h *mergeHarness) check() {
	t := h.t
	t.Helper()
	h.c.Run()
	if len(h.ran) != h.inserted {
		t.Fatalf("%d handlers ran, %d events inserted", len(h.ran), h.inserted)
	}
	want := slices.Clone(h.ran)
	slices.SortFunc(want, func(a, b mergeRec) int {
		switch {
		case a.less(b, h.reversed):
			return -1
		case b.less(a, h.reversed):
			return 1
		}
		return 0
	})
	for i := range want {
		if h.ran[i] != want[i] {
			t.Fatalf("reversed ties %v: event %d ran as %+v; the key order puts %+v there", h.reversed, i, h.ran[i], want[i])
		}
	}
}

// runMergeProgram interprets prog as rounds of (inserts..., steps), once in
// the default order and once with every tie reversed. Byte layout per
// round: an insert count, three bytes per insert (source and destination;
// clock advance and delay; flags: 0x40 makes a local Schedule on the
// source instead of a post, bits 2-3 count the follow-ups its handler
// inserts, bits 0-1 shorten the delay, 0x80 is unused), then one byte k:
// step the cluster k events. The harness clock only moves forward and
// never lags the cluster's, so every insert lands after everything already
// run, as one from a handler at that instant would.
func runMergeProgram(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	for _, reversed := range []bool{false, true} {
		runMergeOnce(t, prog, reversed)
	}
}

func runMergeOnce(t *testing.T, prog []byte, reversed bool) {
	shards := 2 + int(prog[0])%5
	h := newMergeHarness(t, shards, reversed)
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
			now += Time(b >> 6) // 0..3: equal timestamps across sources are common
			for s := range h.c.shards {
				now = max(now, h.c.shards[s].now)
			}
			h.c.RunUntil(now)
			delay := 1 + Time(b&0x3f)>>(f&3) // varied delays put a source's own inserts out of order
			hops := int(f >> 2 & 3)
			if f&0x40 != 0 {
				h.schedule(src, now+delay, hops)
			} else {
				h.post(src, dst, delay, hops)
			}
		}
		if pc < len(prog) {
			h.step(int(prog[pc]))
			pc++
		}
	}
	h.check()
}

// mergeSeeds are programs built to reach the order's corners; the fuzz
// corpus in testdata/fuzz/FuzzMergeOrder holds further ones (a reversed
// single source, all-equal timestamps, fuzzer finds).
func mergeSeeds() [][]byte {
	var seeds [][]byte
	// Five sources interleaving at equal timestamps into shard 0, local
	// events and follow-ups mixed in, stepped by varied amounts between
	// rounds.
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
				if i%5 == 0 {
					flags |= 0x40
				}
				if i%3 == 0 {
					flags |= 0x08
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
	// An insert that sorts before every pending event: a hundred posts from
	// shard 1 mature at t=64, part of them run, and shard 2 posts for the
	// next tick.
	for _, eat := range []byte{10, 70} {
		p := []byte{3, 100} // 5 shards
		for i := 0; i < 100; i++ {
			p = append(p, 1, 0x3f, 0)
		}
		seeds = append(seeds, append(p, eat, 1, 2, 0, 0, 0))
	}
	return seeds
}

// TestMergeOrderProperty: whatever was posted and scheduled, from the
// harness between steps or from handlers mid-run, every event runs in the
// (timestamp, shard, insertion) order, and in its mirror under ReverseTies.
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

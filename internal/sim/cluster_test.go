package sim

import (
	"fmt"
	"strings"
	"testing"
)

// buildPingPong wires a deterministic cross-shard workload: each shard runs
// a local event chain and posts tokens to the next shard with varying
// delays and priorities. Each shard records its own trace (shards must not
// share mutable state mid-window — the same rule the real data paths obey);
// the flattened per-shard traces are the determinism witness. With
// declareEdges the ring's hops are declared edges, which arms Post's check
// and must change nothing else.
func buildPingPong(shards, tokens int, declareEdges bool) (*Cluster, [][]string) {
	const lookahead = 100 * Nanosecond
	c := NewCluster(shards, lookahead, 42)
	if declareEdges {
		for i := 0; i < shards; i++ {
			c.DeclareEdge(i, (i+1)%shards, lookahead)
		}
	}
	traces := make([][]string, shards)

	type token struct {
		id   int
		hops int
	}
	var hop func(shard int) func(any)
	hops := make([]func(any), shards)
	for i := 0; i < shards; i++ {
		i := i
		hops[i] = func(a any) {
			t := a.(*token)
			e := c.Shard(i)
			traces[i] = append(traces[i], fmt.Sprintf("s%d tok%d hop%d @%d", i, t.id, t.hops, e.Now()))
			if t.hops <= 0 {
				return
			}
			t.hops--
			next := (i + 1) % shards
			// Vary the delay deterministically from the shard RNG.
			delay := lookahead + Time(c.Rand(i).Intn(3))*50*Nanosecond
			e.Post(c.Shard(next), delay, PriData, hop(next), t)
		}
	}
	hop = func(shard int) func(any) { return hops[shard] }

	for id := 0; id < tokens; id++ {
		s := id % shards
		tk := &token{id: id, hops: 12}
		at := Time(id) * 10 * Nanosecond
		c.Shard(s).Schedule(at, func() { hops[s](tk) })
	}
	// Local chains interleaved with the posts.
	for i := 0; i < shards; i++ {
		i := i
		n := 0
		var tick func()
		tick = func() {
			traces[i] = append(traces[i], fmt.Sprintf("s%d tick%d @%d", i, n, c.Shard(i).Now()))
			n++
			if n < 20 {
				c.Shard(i).After(130*Nanosecond, tick)
			}
		}
		c.Shard(i).Schedule(5*Nanosecond, tick)
	}
	return c, traces
}

func flatten(traces [][]string) []string {
	var out []string
	for _, t := range traces {
		out = append(out, t...)
	}
	return out
}

// runTrace drives the ping-pong through the window engine; stepTrace
// replays it one globally earliest event at a time — the oracle: no window,
// no horizon, nothing to get wrong but the inbox order.
func runTrace(shards, tokens int, declareEdges bool) []string {
	c, traces := buildPingPong(shards, tokens, declareEdges)
	c.Shard(0).Run()
	return flatten(traces)
}

func stepTrace(shards, tokens int, declareEdges bool) []string {
	c, traces := buildPingPong(shards, tokens, declareEdges)
	for c.Step() {
	}
	return flatten(traces)
}

func diffTraces(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %q, want %q", what, i, got[i], want[i])
		}
	}
}

// TestClusterSerialParallelIdentical is the core determinism property: the
// windowed run, in which shards advance side by side through lookahead
// windows, leaves every shard the timeline the serial global-order replay
// leaves it — with and without declared edges.
func TestClusterSerialParallelIdentical(t *testing.T) {
	want := stepTrace(4, 8, false)
	if len(want) == 0 {
		t.Fatal("empty trace")
	}
	diffTraces(t, "windowed, no edges declared", runTrace(4, 8, false), want)
	diffTraces(t, "stepped, edges declared", stepTrace(4, 8, true), want)
	diffTraces(t, "windowed, edges declared", runTrace(4, 8, true), want)
}

// buildEcho is the free sprint's test: shard 0 ticks alone — nothing else is
// active, so it runs without a horizon — and twice asks idle shard 1 for an
// echo that lands back between two of its later ticks. The sprint has to end
// at each request — whatever its rank: the second is the only post shard 0
// makes in that sprint and goes out at priLate — or the echo arrives in
// shard 0's past.
func buildEcho() (*Cluster, *[]string) {
	const lookahead = 5 * Nanosecond
	c := NewCluster(2, lookahead, 1)
	var trace []string
	s0, s1 := c.Shard(0), c.Shard(1)
	echo := func(a any) { trace = append(trace, fmt.Sprintf("echo%d @%d", a.(int), s0.Now())) }
	reflect := func(a any) { s1.Post(s0, lookahead, PriData, echo, a) }
	n := 0
	var tick func()
	tick = func() {
		trace = append(trace, fmt.Sprintf("tick%d @%d", n, s0.Now()))
		switch n++; n {
		case 10:
			s0.Post(s1, lookahead, PriData, reflect, n)
		case 40:
			s0.Post(s1, lookahead, priLate, reflect, n)
		}
		if n < 100 {
			s0.After(3*Nanosecond, tick)
		}
	}
	s0.Schedule(0, tick)
	return c, &trace
}

// TestClusterStepMatchesRun: the one-event-window Step mode used during
// setup produces the same timeline as full windows — also when a run
// alternates between the two, and across a free sprint.
func TestClusterStepMatchesRun(t *testing.T) {
	want := runTrace(3, 5, false)
	c, traces := buildPingPong(3, 5, false)
	for i := 0; c.Step(); i++ {
		if i%7 == 3 {
			c.RunCapped(5)
		}
	}
	diffTraces(t, "step mode", flatten(traces), want)

	stepped, wantEcho := buildEcho()
	for stepped.Step() {
	}
	windowed, gotEcho := buildEcho()
	windowed.Run()
	diffTraces(t, "free sprint", *gotEcho, *wantEcho)
	if w := windowed.Windows(); w > 10 {
		t.Fatalf("%d windows for 100 ticks and two echoes: shard 0 is not sprinting", w)
	}
}

// TestClusterPostBelowLookaheadPanics: the conservative bound is enforced,
// not assumed.
// The message names the edge and its minimum, not the cluster lookahead.
func TestClusterPostBelowLookaheadPanics(t *testing.T) {
	c := NewCluster(2, 100*Nanosecond, 1)
	c.DeclareEdge(0, 1, 300*Nanosecond)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "shard 0→1 minimum 300ns") {
			t.Fatalf("post below the edge minimum: recovered %q, want a panic naming the edge", msg)
		}
	}()
	c.Shard(0).Post(c.Shard(1), 200*Nanosecond, PriData, func(any) {}, nil)
}

// TestClusterMergeOrdering: posts landing at one timestamp on one shard run
// in (priority, source shard, source seq) order regardless of post order,
// each as an event of the destination shard.
func TestClusterMergeOrdering(t *testing.T) {
	c := NewCluster(3, 100*Nanosecond, 1)
	var got []string
	rec := func(tag string) func(any) {
		return func(any) { got = append(got, tag) }
	}
	// All three posts mature at t=100 on shard 0; post them in an order that
	// differs from the deterministic key order.
	c.Shard(2).Post(c.Shard(0), 100*Nanosecond, priLate, rec("s2-late"), nil)
	c.Shard(2).Post(c.Shard(0), 100*Nanosecond, PriData, rec("s2-data"), nil)
	c.Shard(1).Post(c.Shard(0), 100*Nanosecond, PriData, rec("s1-data"), nil)
	// At the same instant a shard's own heap event runs before any post.
	c.Shard(0).Schedule(100*Nanosecond, func() { got = append(got, "s0-local") })
	c.Shard(0).Run()
	want := []string{"s0-local", "s1-data", "s2-data", "s2-late"}
	if len(got) != len(want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	// Shard 0 executed its own local event plus the three posts.
	if got, want := c.Posted(), uint64(3); got != want {
		t.Fatalf("posted %d, want %d", got, want)
	}
	if got, want := c.Shard(0).Processed(), uint64(4); got != want {
		t.Fatalf("shard 0 processed %d events, want %d", got, want)
	}
}

// TestClusterRunUntil: clocks advance to exactly t on every shard and
// events beyond t stay pending.
func TestClusterRunUntil(t *testing.T) {
	c := NewCluster(2, 100*Nanosecond, 1)
	var ran []Time
	c.Shard(0).Schedule(50*Nanosecond, func() { ran = append(ran, 50) })
	c.Shard(1).Schedule(200*Nanosecond, func() { ran = append(ran, 200) })
	c.Shard(0).Schedule(400*Nanosecond, func() { ran = append(ran, 400) })
	c.Shard(0).RunUntil(200 * Nanosecond)
	if len(ran) != 2 {
		t.Fatalf("ran %v, want events at 50 and 200", ran)
	}
	for i := 0; i < 2; i++ {
		if c.Shard(i).Now() != 200*Nanosecond {
			t.Fatalf("shard %d clock %v, want 200ns", i, c.Shard(i).Now())
		}
	}
	if c.Pending() != 1 {
		t.Fatalf("pending %d, want 1", c.Pending())
	}
	// The top of the range is a valid bound: everything pending runs.
	c.Shard(0).RunUntil(timeMax)
	if len(ran) != 3 || ran[2] != 400 {
		t.Fatalf("ran %v, want final event at 400", ran)
	}
}

// TestClusterPartitionedRand: per-shard streams are stable and distinct.
func TestClusterPartitionedRand(t *testing.T) {
	a := NewCluster(3, 100*Nanosecond, 7)
	b := NewCluster(3, 100*Nanosecond, 7)
	for i := 0; i < 3; i++ {
		if a.Rand(i).Uint64() != b.Rand(i).Uint64() {
			t.Fatalf("shard %d stream not reproducible", i)
		}
	}
	if a.Rand(0).Uint64() == a.Rand(1).Uint64() {
		t.Fatal("shard streams correlated")
	}
}

// TestEdgeClosure covers what declared edges are for — a check, nothing the
// horizons read. A pair with no declared edge cannot be posted on, a declared
// pair not under its minimum (TestClusterPostBelowLookaheadPanics), no shard
// posts to itself whether or not edges are declared, and a run with its
// edges declared is cut into exactly the windows of the same run without.
func TestEdgeClosure(t *testing.T) {
	const lookahead = 10 * Nanosecond
	wantPanic := func(what, msg string, post func()) {
		t.Helper()
		defer func() {
			if got := fmt.Sprint(recover()); !strings.Contains(got, msg) {
				t.Errorf("%s: recovered %q, want a panic saying %q", what, got, msg)
			}
		}()
		post()
	}
	for _, declare := range []bool{false, true} {
		c := NewCluster(3, lookahead, 1)
		if declare {
			c.DeclareEdge(0, 1, lookahead)
			c.DeclareEdge(1, 0, lookahead)
			wantPanic("post on an undeclared pair", "without a declared edge", func() {
				c.Shard(0).Post(c.Shard(2), lookahead, PriData, func(any) {}, nil)
			})
		}
		// With direct insertion a self-post would write the inbox it is
		// being consumed from; After is how a shard reaches itself.
		wantPanic(fmt.Sprintf("self-post, edges declared: %v", declare), "post to own shard; use After", func() {
			c.Shard(1).Post(c.Shard(1), lookahead, PriData, func(any) {}, nil)
		})
		if c.Posted() != 0 || c.Pending() != 0 {
			t.Errorf("refused posts left a trace: posted %d, pending %d", c.Posted(), c.Pending())
		}
	}

	plain, _ := buildPingPong(4, 8, false)
	plain.Run()
	declared, _ := buildPingPong(4, 8, true)
	declared.Run()
	if plain.Windows() == 0 || declared.Windows() != plain.Windows() || declared.Fused() != plain.Fused() {
		t.Fatalf("%d windows (%d fused) with edges declared, %d (%d fused) without; declaring edges must not move a horizon",
			declared.Windows(), declared.Fused(), plain.Windows(), plain.Fused())
	}
}

// TestClusterRunCapped: the event budget is a livelock guard that stops a
// run within one window of the budget. Two of five shards tick a hundred
// times per lookahead, a third hears from them now and then, two never run.
// Inside a window every shard may spend all of what is left of the budget;
// across windows what is left shrinks.
func TestClusterRunCapped(t *testing.T) {
	const (
		lookahead = 1000 * Nanosecond
		period    = 10 * Nanosecond // 100 ticks per shard per window
		ticks     = 1000
		budget    = 250
	)
	c := NewCluster(5, lookahead, 9)
	sink := func(any) {}
	for _, shard := range []int{0, 2} {
		e, n := c.Shard(shard), 0
		var tick func()
		tick = func() {
			if n++; n%100 == 0 {
				e.Post(c.Shard(4), 2*lookahead, PriData, sink, nil)
			}
			if n < ticks {
				e.After(period, tick)
			}
		}
		e.Schedule(0, tick)
	}
	// Window 1 runs 100 ticks on each of shards 0 and 2 — their horizons,
	// not the budget, end it. Window 2 has 50 events of budget left and
	// gives that to both. The posts made so far mature later.
	if drained := c.RunCapped(budget); drained || c.Processed() != 300 || c.Windows() != 2 {
		t.Fatalf("RunCapped(%d): drained=%v after %d events in %d windows; want not drained, 300 events, 2 windows",
			budget, drained, c.Processed(), c.Windows())
	}
	const windowMax = 2*100 + 2 // both tickers' events in one window, plus what shard 4 can receive
	for prev, drained := c.Processed(), false; !drained; prev = c.Processed() {
		drained = c.RunCapped(budget)
		switch ran := c.Processed() - prev; {
		case !drained && (ran < budget || ran >= budget+windowMax):
			t.Fatalf("RunCapped(%d) executed %d events without draining, want within one window (%d events) over the budget", budget, ran, windowMax)
		case drained && c.Pending() != 0:
			t.Fatalf("reported drained with %d events pending", c.Pending())
		}
	}
	if want := uint64(2*ticks + 2*ticks/100); c.Processed() != want {
		t.Fatalf("executed %d events in all, want %d", c.Processed(), want)
	}
}

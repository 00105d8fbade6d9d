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
// declareEdges the ring runs under a per-edge lookahead matrix instead of
// the uniform fallback: same posts, wider windows.
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
// no horizon, nothing to get wrong but the merge.
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
// leaves it — under the uniform lookahead and under a declared edge matrix,
// whose wider windows change how the work is cut up and nothing else.
func TestClusterSerialParallelIdentical(t *testing.T) {
	want := stepTrace(4, 8, false)
	if len(want) == 0 {
		t.Fatal("empty trace")
	}
	diffTraces(t, "windowed, uniform lookahead", runTrace(4, 8, false), want)
	diffTraces(t, "stepped, edge matrix", stepTrace(4, 8, true), want)
	diffTraces(t, "windowed, edge matrix", runTrace(4, 8, true), want)
}

// buildEcho is the free sprint's test: shard 0 ticks alone — nothing else is
// active, so it runs without a horizon — and twice asks idle shard 1 for an
// echo that lands back between two of its later ticks. The sprint has to end
// at each request — whatever its rank: the second is the only post shard 0
// stages in that sprint and goes out at priLate — or the echo arrives in
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
	// A local heap event in the first window runs before the barrier.
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
	// Shard 0 executed its own local event plus the three merged posts.
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

// TestEdgeClosure covers what the edge matrix is for. EdgeDist is the
// shortest chain of declared edges (checked against a brute-force
// relaxation over random edge sets); a pair with no declared edge cannot be
// posted on; and a shard no active shard can reach is not held to anybody's
// horizon — it runs to the end of its work inside the first window.
func TestEdgeClosure(t *testing.T) {
	const lookahead = 10 * Nanosecond
	rng := NewRand(0xed6e)
	for round := 0; round < 200; round++ {
		n := 2 + rng.Intn(6)
		c := NewCluster(n, lookahead, 1)
		want := make([]Time, n*n)
		for i := range want {
			want[i] = timeMax
		}
		for k := 1 + rng.Intn(2*n); k > 0; k-- {
			src, dst := rng.Intn(n), rng.Intn(n)
			if src == dst {
				continue
			}
			w := lookahead + Time(rng.Intn(50))
			c.DeclareEdge(src, dst, w)
			want[src*n+dst] = min(want[src*n+dst], w)
		}
		if c.edge == nil {
			continue // every draw was a self-pair: still uniform mode
		}
		// A shortest path has at most n-1 edges: relax every (i, k, j)
		// triple that many times.
		for pass := 1; pass < n; pass++ {
			for i := 0; i < n; i++ {
				for k := 0; k < n; k++ {
					for j := 0; j < n; j++ {
						if ik, kj := want[i*n+k], want[k*n+j]; ik != timeMax && kj != timeMax {
							want[i*n+j] = min(want[i*n+j], ik+kj)
						}
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got := c.EdgeDist(i, j); i != j && got != want[i*n+j] {
					t.Fatalf("round %d, %d shards: EdgeDist(%d, %d) = %d, want %d (edges %v)", round, n, i, j, got, want[i*n+j], c.edge)
				}
			}
		}
	}

	// Shards 0 and 1 exchange a token; shard 2 has a long local chain and no
	// edge leading to it.
	c := NewCluster(3, lookahead, 1)
	c.DeclareEdge(0, 1, lookahead)
	c.DeclareEdge(1, 0, lookahead)
	func() {
		defer func() {
			if msg := fmt.Sprint(recover()); !strings.Contains(msg, "without a declared edge") {
				t.Errorf("post on an undeclared pair: recovered %q, want the no-edge panic", msg)
			}
		}()
		c.Shard(0).Post(c.Shard(2), lookahead, PriData, func(any) {}, nil)
	}()
	var bounce func(any)
	hops := 0
	bounce = func(any) {
		if hops++; hops < 50 {
			from := c.Shard(hops % 2)
			from.Post(c.Shard(1-hops%2), lookahead, PriData, bounce, nil)
		}
	}
	c.Shard(0).Schedule(0, func() { c.Shard(0).Post(c.Shard(1), lookahead, PriData, bounce, nil) })
	c.Shard(1).Schedule(0, func() {})
	const ticks, period = 1000, 7 * Nanosecond
	left := ticks
	var tick func()
	tick = func() {
		if left--; left > 0 {
			c.Shard(2).After(period, tick)
			return
		}
		// The last tick, far beyond every horizon shards 0 and 1 will see
		// for dozens of windows.
		if w, now0 := c.Windows(), c.Shard(0).Now(); w != 1 || now0 > lookahead {
			t.Errorf("unreachable shard finished at %v in window %d with shard 0 at %v; want window 1, shard 0 within one lookahead of zero", c.Shard(2).Now(), w, now0)
		}
	}
	c.Shard(2).Schedule(0, tick)
	c.Run()
	if hops != 50 || left != 0 {
		t.Fatalf("ran %d hops and left %d ticks, want 50 and 0", hops, left)
	}
	if c.Windows() < 50 {
		t.Fatalf("%d windows for 50 lookahead-spaced hops; the reachable pair should need one each", c.Windows())
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
	// gives that to both. The posts staged so far mature later.
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

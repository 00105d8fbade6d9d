package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// logEntry is one executed event: its timestamp, its shard and its place
// in that shard's own sequence.
type logEntry struct {
	at    Time
	shard int
	seq   uint64
}

// eventLog records every event a run executes, in execution order. It is the
// independent reference the scheduler is held to: the global order is a
// brute-force stable sort of the log by (timestamp, shard), and the log must
// already be in it.
type eventLog []logEntry

// note records the event shard e is executing now; every event of a
// workload under test calls it once.
func (l *eventLog) note(e *Engine) {
	*l = append(*l, logEntry{at: e.Now(), shard: e.shard, seq: e.ProcessedLocal()})
}

// checkGlobalOrder fails unless the log holds every event c executed and
// equals its own stable sort by (timestamp, shard).
func checkGlobalOrder(t *testing.T, what string, c *Cluster, log eventLog) {
	t.Helper()
	if uint64(len(log)) != c.Processed() || len(log) == 0 {
		t.Fatalf("%s: %d events logged, %d executed", what, len(log), c.Processed())
	}
	want := slices.Clone(log)
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].shard < want[j].shard
	})
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("%s: event %d ran at %d on shard %d (its #%d); the global order puts shard %d's #%d at %d there",
				what, i, log[i].at, log[i].shard, log[i].seq, want[i].shard, want[i].seq, want[i].at)
		}
	}
}

// buildPingPong wires a deterministic cross-shard workload: each shard runs
// a local event chain and posts tokens to the next shard with varying
// delays. Each shard records its own trace (shards share no
// mutable state but by posts — the same rule the real data paths obey);
// the flattened per-shard traces are the determinism witness, and every
// event is noted in the returned log. With declareEdges the ring's hops are
// declared edges, which arms Post's check and must change nothing else.
func buildPingPong(shards, tokens int, declareEdges bool) (*Cluster, [][]string, *eventLog) {
	const lookahead = 100 * Nanosecond
	c := NewCluster(shards, lookahead, 42)
	if declareEdges {
		for i := 0; i < shards; i++ {
			c.DeclareEdge(i, (i+1)%shards, lookahead)
		}
	}
	traces := make([][]string, shards)
	log := &eventLog{}
	rngs := make([]*Rand, shards)
	for i := range rngs {
		rngs[i] = NewRand(uint64(i + 1))
	}

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
			log.note(e)
			traces[i] = append(traces[i], fmt.Sprintf("s%d tok%d hop%d @%d", i, t.id, t.hops, e.Now()))
			if t.hops <= 0 {
				return
			}
			t.hops--
			next := (i + 1) % shards
			// Vary the delay deterministically from the shard's own stream.
			delay := lookahead + Time(rngs[i].Intn(3))*50*Nanosecond
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
			log.note(c.Shard(i))
			traces[i] = append(traces[i], fmt.Sprintf("s%d tick%d @%d", i, n, c.Shard(i).Now()))
			n++
			if n < 20 {
				c.Shard(i).After(130*Nanosecond, tick)
			}
		}
		c.Shard(i).Schedule(5*Nanosecond, tick)
	}
	return c, traces, log
}

func flatten(traces [][]string) []string {
	var out []string
	for _, t := range traces {
		out = append(out, t...)
	}
	return out
}

// runTrace drives the ping-pong through Run and holds its event log to the
// global order.
func runTrace(t *testing.T, shards, tokens int, declareEdges bool) []string {
	t.Helper()
	c, traces, log := buildPingPong(shards, tokens, declareEdges)
	c.Shard(0).Run()
	checkGlobalOrder(t, fmt.Sprintf("ping-pong, edges declared: %v", declareEdges), c, *log)
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

// TestClusterSerialParallelIdentical is the core determinism property: Run
// executes every event in the global (timestamp, shard) order, checked
// against a sort of its own event log, and declaring edges changes nothing
// a shard sees.
func TestClusterSerialParallelIdentical(t *testing.T) {
	want := runTrace(t, 4, 8, false)
	diffTraces(t, "edges declared", runTrace(t, 4, 8, true), want)
}

// buildEcho is the lone shard's test: shard 0 ticks alone — nothing else is
// pending, so it runs with no other shard to bound it — and twice asks idle
// shard 1 for an echo that lands back between two of its later ticks. Each
// request has to bound shard 0 at once, or the echo arrives in shard 0's
// past.
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
			s0.Post(s1, lookahead, PriData, reflect, n)
		}
		if n < 100 {
			s0.After(3*Nanosecond, tick)
		}
	}
	s0.Schedule(0, tick)
	return c, &trace
}

// TestClusterStepMatchesRun: the one-event Step used during setup produces
// the same timeline as Run — also when a run alternates between Step and
// RunCapped, and while a shard runs alone.
func TestClusterStepMatchesRun(t *testing.T) {
	want := runTrace(t, 3, 5, false)
	c, traces, _ := buildPingPong(3, 5, false)
	for i := 0; c.Step(); i++ {
		if i%7 == 3 {
			c.RunCapped(5)
		}
	}
	diffTraces(t, "step mode", flatten(traces), want)

	stepped, wantEcho := buildEcho()
	for stepped.Step() {
	}
	run, gotEcho := buildEcho()
	run.Run()
	diffTraces(t, "lone shard", *gotEcho, *wantEcho)
	if w := run.Windows(); w > 10 {
		t.Fatalf("%d windows for 100 ticks and two echoes: the lone shard is switched out between its own events", w)
	}
}

// TestClusterForeignScheduleBounds: an event that schedules straight onto
// another shard, without Post, bounds the running shard like a post does.
// Shard 0 runs alone from time 0 with events at 1 through 10 queued; its
// first event puts one on shard 1 at 5, which must run between shard 0's
// events at 5 and 6.
func TestClusterForeignScheduleBounds(t *testing.T) {
	c := NewCluster(2, 1, 1)
	s0, s1 := c.Shard(0), c.Shard(1)
	log := &eventLog{}
	s0.Schedule(0, func() {
		log.note(s0)
		s1.Schedule(5, func() { log.note(s1) })
	})
	for at := Time(1); at <= 10; at++ {
		s0.Schedule(at, func() { log.note(s0) })
	}
	c.Run()
	checkGlobalOrder(t, "foreign schedule", c, *log)
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
// in the order they arrived, whatever their source shard, and a local event
// scheduled for that instant takes its place among them; each runs as an
// event of the destination shard.
func TestClusterMergeOrdering(t *testing.T) {
	c := NewCluster(3, 100*Nanosecond, 1)
	var got []string
	rec := func(tag string) func(any) {
		return func(any) { got = append(got, tag) }
	}
	// Everything matures at t=100 on shard 0; arrival order alternates
	// sources, so neither the source nor the kind of event sorts it.
	c.Shard(2).Post(c.Shard(0), 100*Nanosecond, PriData, rec("s2-first"), nil)
	c.Shard(1).Post(c.Shard(0), 100*Nanosecond, PriData, rec("s1-second"), nil)
	c.Shard(0).Schedule(100*Nanosecond, func() { got = append(got, "s0-third") })
	c.Shard(2).Post(c.Shard(0), 100*Nanosecond, PriData, rec("s2-fourth"), nil)
	c.Shard(0).Run()
	want := []string{"s2-first", "s1-second", "s0-third", "s2-fourth"}
	if !slices.Equal(got, want) {
		t.Fatalf("ran %v, want %v", got, want)
	}
	// Shard 0 executed its own local event plus the three posts.
	if got, want := c.Posted(), uint64(3); got != want {
		t.Fatalf("posted %d, want %d", got, want)
	}
	if got, want := c.Shard(0).ProcessedLocal(), uint64(4); got != want {
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

// TestEdgeClosure covers what declared edges are for — a check, nothing the
// scheduler reads. A pair with no declared edge cannot be posted on, a declared
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
		// A post is a hand-off between shards and carries a hand-off's
		// latency; After is how a shard reaches itself.
		wantPanic(fmt.Sprintf("self-post, edges declared: %v", declare), "post to own shard; use After", func() {
			c.Shard(1).Post(c.Shard(1), lookahead, PriData, func(any) {}, nil)
		})
		if c.Posted() != 0 || c.Pending() != 0 {
			t.Errorf("refused posts left a trace: posted %d, pending %d", c.Posted(), c.Pending())
		}
	}

	plain, _, _ := buildPingPong(4, 8, false)
	plain.Run()
	declared, _, _ := buildPingPong(4, 8, true)
	declared.Run()
	if plain.Windows() == 0 || declared.Windows() != plain.Windows() || declared.Fused() != plain.Fused() {
		t.Fatalf("%d windows (%d fused) with edges declared, %d (%d fused) without; declaring edges must not change how a run is cut",
			declared.Windows(), declared.Fused(), plain.Windows(), plain.Fused())
	}
}

// TestClusterRunCapped: the event budget is exact. Two of five shards tick
// a hundred times per lookahead, a third hears from them now and then, two
// never run; every call that does not drain runs exactly the budget, the
// one that drains runs at most that.
func TestClusterRunCapped(t *testing.T) {
	const (
		lookahead = 1000 * Nanosecond
		period    = 10 * Nanosecond
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
	for prev, drained := uint64(0), false; !drained; prev = c.Processed() {
		drained = c.RunCapped(budget)
		switch ran := c.Processed() - prev; {
		case !drained && ran != budget:
			t.Fatalf("RunCapped(%d) executed %d events without draining, want exactly the budget", budget, ran)
		case drained && (ran > budget || c.Pending() != 0):
			t.Fatalf("RunCapped(%d) executed %d events and reported drained with %d pending", budget, ran, c.Pending())
		}
	}
	if want := uint64(2*ticks + 2*ticks/100); c.Processed() != want {
		t.Fatalf("executed %d events in all, want %d", c.Processed(), want)
	}
}

// TestRunCappedBoundary: a standalone engine and a cluster holding the same
// n events report drained exactly when the budget covers all n — also when
// the budget's last event is the one that empties the queue — and run
// exactly min(budget, n) events.
func TestRunCappedBoundary(t *testing.T) {
	const n = 6
	build := map[string]func() *Engine{
		"engine": func() *Engine {
			e := NewEngine()
			for i := 0; i < n; i++ {
				e.Schedule(Time(i), func() {})
			}
			return e
		},
		// Shard 0 runs n-1 events, the last of which posts the n-th to shard 1.
		"cluster": func() *Engine {
			c := NewCluster(2, 1, 1)
			s0 := c.Shard(0)
			for i := 0; i < n-1; i++ {
				last := i == n-2
				s0.Schedule(Time(i), func() {
					if last {
						s0.Post(c.Shard(1), 1, PriData, func(any) {}, nil)
					}
				})
			}
			return s0
		},
	}
	for _, form := range []string{"engine", "cluster"} {
		for _, budget := range []uint64{n - 1, n, n + 1} {
			e := build[form]()
			drained := e.RunCapped(budget)
			if want := budget >= n; drained != want || drained != (e.Pending() == 0) {
				t.Errorf("%s RunCapped(%d) on %d events: drained=%v with %d pending, want %v", form, budget, n, drained, e.Pending(), want)
			}
			if got, want := e.Processed(), min(budget, uint64(n)); got != want {
				t.Errorf("%s RunCapped(%d) on %d events ran %d, want %d", form, budget, n, got, want)
			}
		}
	}
}

package sim

import "testing"

// fakeHost drives a bare dispatcher the way runLoop does, against a clock
// that charges a chosen number of nanoseconds per event in each mode.
type fakeHost struct {
	d     dispatcher
	now   int64
	reads int
	cost  [2]int64 // ns per event, by mode
}

func newFakeHost(inline, workers int64) *fakeHost {
	h := &fakeHost{cost: [2]int64{dispInline: inline, dispWorkers: workers}}
	h.d.clock = func() int64 { h.reads++; return h.now }
	h.d.reset()
	return h
}

// run executes n windows of 10 events each inside one runLoop call.
func (h *fakeHost) run(n int) {
	h.d.enter()
	for i := 0; i < n; i++ {
		h.now += 10 * h.cost[h.d.mode]
		h.d.window(10)
	}
	h.d.leave()
}

// One round: an exploit block, then a probe of each mode.
const dispatchRound = exploitWindows + 2*probeWindows

// TestDispatcherConvergesAndReprobes: a run starts with an inline exploit
// block that reads no clock, stays inline through the next one whatever the
// first probes say, settles on the cheaper mode once it has won flipRounds
// rounds, probes come round again, and the clock is read only at the edges
// of probe blocks.
func TestDispatcherConvergesAndReprobes(t *testing.T) {
	for _, tc := range []struct {
		inline, workers int64
		want            uint8
	}{{100, 250, dispInline}, {250, 100, dispWorkers}} {
		h := newFakeHost(tc.inline, tc.workers)
		h.run(exploitWindows - 1)
		if h.d.phase != phaseExploit || h.d.mode != dispInline || h.reads != 0 {
			t.Fatalf("a fresh dispatcher: phase %d mode %d after %d clock reads, want an inline exploit block and none", h.d.phase, h.d.mode, h.reads)
		}
		h.run(1 + 2*probeWindows)
		if h.d.phase != phaseExploit || h.d.mode != dispInline {
			t.Fatalf("costs %d/%d: after one probe round phase %d mode %d, want exploit inline",
				tc.inline, tc.workers, h.d.phase, h.d.mode)
		}
		if in, w := h.d.perEvent[dispInline], h.d.perEvent[dispWorkers]; in != float64(tc.inline) || w != float64(tc.workers) {
			t.Fatalf("probe measured %g/%g ns per event, want %d/%d", in, w, tc.inline, tc.workers)
		}
		reads := h.reads
		h.run(exploitWindows - 1)
		if h.reads != reads {
			t.Fatalf("exploit block read the clock %d times", h.reads-reads)
		}
		h.run(1)
		if h.d.phase != phaseProbeInline || h.d.mode != dispInline {
			t.Fatalf("after the exploit block: phase %d mode %d, want an inline probe", h.d.phase, h.d.mode)
		}
		h.run(2*probeWindows + (flipRounds-2)*dispatchRound)
		if h.d.phase != phaseExploit || h.d.mode != tc.want {
			t.Fatalf("costs %d/%d: after %d probe rounds phase %d mode %d, want exploit in mode %d",
				tc.inline, tc.workers, flipRounds, h.d.phase, h.d.mode, tc.want)
		}
		h.run((6 - flipRounds) * dispatchRound)
		// Per round: enter and leave around each of two probe blocks; per
		// run call, at most the same pair again.
		if max := 4*6 + 2*6; h.reads > max {
			t.Fatalf("%d clock reads over 6 rounds in 6 calls, want at most %d", h.reads, max)
		}
		if h.d.best != tc.want {
			t.Fatalf("drifted to mode %d with constant costs", h.d.best)
		}
	}
}

// TestDispatcherHysteresis: one round that measures the other mode cheaper
// flips nothing; flipRounds consecutive ones do.
func TestDispatcherHysteresis(t *testing.T) {
	h := newFakeHost(100, 250)
	h.run(dispatchRound)
	if h.d.best != dispInline {
		t.Fatalf("settled on mode %d, want inline", h.d.best)
	}
	// A probe block that executed nothing has nothing to compare: no
	// decision, and no NaN in what ProbeNsPerEvent reports.
	before := h.d.perEvent
	h.d.enter()
	for i := 0; i < dispatchRound; i++ {
		h.now += 1000
		h.d.window(0)
	}
	h.d.leave()
	if h.d.best != dispInline || h.d.losses != 0 || h.d.perEvent != before {
		t.Fatalf("an empty round changed the dispatcher: best %d losses %d perEvent %v (was %v)", h.d.best, h.d.losses, h.d.perEvent, before)
	}
	// One noisy round: something preempted the inline probe.
	h.cost = [2]int64{dispInline: 900, dispWorkers: 250}
	h.run(dispatchRound)
	if h.d.best != dispInline || h.d.losses != 1 {
		t.Fatalf("one noisy round: best %d losses %d, want inline with one loss noted", h.d.best, h.d.losses)
	}
	h.cost = [2]int64{dispInline: 100, dispWorkers: 250}
	h.run(dispatchRound)
	if h.d.best != dispInline || h.d.losses != 0 {
		t.Fatalf("after a clean round: best %d losses %d, want inline and the loss forgotten", h.d.best, h.d.losses)
	}
	// The host really changed: workers are cheaper from now on.
	h.cost = [2]int64{dispInline: 300, dispWorkers: 120}
	for i := 1; i <= flipRounds; i++ {
		if h.d.best != dispInline {
			t.Fatalf("flipped after %d rounds, want %d", i-1, flipRounds)
		}
		h.run(dispatchRound)
	}
	if h.d.best != dispWorkers || h.d.phase != phaseExploit || h.d.mode != dispWorkers {
		t.Fatalf("after %d losing rounds: best %d phase %d mode %d, want an exploit block on workers", flipRounds, h.d.best, h.d.phase, h.d.mode)
	}
}

// tickCluster builds shards that all have an event in every window — local
// ticks one lookahead apart — plus a data post round the ring per tick, so
// every window has every worker range busy and every barrier has a merge.
func tickCluster(shards, ticks int) *Cluster {
	const period = 10 * Nanosecond
	c := NewCluster(shards, period, 3)
	sink := func(any) {}
	for i := 0; i < shards; i++ {
		e, next, left := c.Shard(i), c.Shard((i+1)%shards), ticks
		var tick func()
		tick = func() {
			e.Post(next, period, PriData, sink, nil)
			if left--; left > 0 {
				e.After(period, tick)
			}
		}
		e.Schedule(0, tick)
	}
	return c
}

// TestClusterSerialNeverReadsClock: with one worker allowed there is
// nothing to decide, so no host time is read at all.
func TestClusterSerialNeverReadsClock(t *testing.T) {
	c := tickCluster(4, 2000)
	c.disp.clock = func() int64 { t.Fatal("serial cluster read the host clock"); return 0 }
	c.Run()
	if c.Windows() < 2000 || c.ParallelWindows() != 0 {
		t.Fatalf("%d windows, %d parallel; want a real run with none parallel", c.Windows(), c.ParallelWindows())
	}
}

// TestClusterFollowsMeasuredCost runs a real cluster against a fake clock:
// where workers measure dearer only the probes go to them, where they
// measure cheaper nearly everything does, and the timeline is the same.
func TestClusterFollowsMeasuredCost(t *testing.T) {
	const ticks = 4 * dispatchRound
	run := func(inline, workers int64) *Cluster {
		c := tickCluster(4, ticks)
		cost := [2]int64{dispInline: inline, dispWorkers: workers}
		var now int64
		var seen uint64
		// Called between windows on the driving goroutine only.
		c.disp.clock = func() int64 {
			ev := c.Processed()
			now += int64(ev-seen) * cost[c.disp.mode]
			seen = ev
			return now
		}
		c.SetWorkers(2)
		c.Run()
		if in, wk := c.ProbeNsPerEvent(); in != float64(inline) || wk != float64(workers) {
			t.Errorf("last probe reported %g/%g ns per event, want %d/%d", in, wk, inline, workers)
		}
		c.SetWorkers(1) // retire the worker
		return c
	}
	dear, cheap := run(100, 300), run(300, 100)
	if dear.Windows() != cheap.Windows() || dear.Processed() != cheap.Processed() || dear.Posted() != cheap.Posted() {
		t.Fatalf("timelines differ: %d/%d windows, %d/%d events", dear.Windows(), cheap.Windows(), dear.Processed(), cheap.Processed())
	}
	w := dear.Windows()
	if w < ticks {
		t.Fatalf("only %d windows for %d ticks", w, ticks)
	}
	rounds := w/dispatchRound + 1
	if p := dear.ParallelWindows(); p < probeWindows || p > rounds*probeWindows {
		t.Errorf("workers dearer: %d of %d windows went to them, want only the %d-window probes of %d rounds", p, w, probeWindows, rounds)
	}
	// Inline holds the exploit blocks until the workers have won flipRounds
	// rounds.
	if p := cheap.ParallelWindows(); p < w-rounds*probeWindows-flipRounds*exploitWindows {
		t.Errorf("workers cheaper: %d of %d windows went to them, want all but the inline probes and the first %d exploit blocks", p, w, flipRounds)
	}
}

// sparseCluster is five shards that four workers split 2/1/1/1: shards 0 and
// 2 tick in every window, shard 4 has nothing pending except for one post
// from shard 0 every seventh tick, shards 1 and 3 never run. Most windows
// therefore have two busy ranges (so they go parallel), one range that is
// idle now but ran earlier, and one that never ran.
func sparseCluster(ticks int) *Cluster {
	const period = 10 * Nanosecond
	c := NewCluster(5, period, 9)
	sink := func(any) {}
	for _, shard := range []int{0, 2} {
		e, n := c.Shard(shard), 0
		var tick func()
		tick = func() {
			if n++; shard == 0 && n%7 == 0 {
				e.Post(c.Shard(4), period, PriData, sink, nil)
			}
			if n < ticks {
				e.After(period, tick)
			}
		}
		e.Schedule(0, tick)
	}
	return c
}

// TestIdleRangeCountsNothing: a worker whose range is idle is not woken, and
// what its shards executed in an earlier window must not be counted again —
// not in the event budget RunCapped enforces, not in what a probe divides by.
func TestIdleRangeCountsNothing(t *testing.T) {
	const ticks = 2 * dispatchRound
	// RunCapped in small bites stops at the same event counts on four
	// workers as on one goroutine.
	bites := func(workers int) []uint64 {
		c := sparseCluster(ticks)
		c.disp.pin = pinWorkers
		c.SetWorkers(workers)
		var at []uint64
		for drained := false; !drained; {
			drained = c.RunCapped(50)
			at = append(at, c.Processed())
		}
		if workers > 1 && c.ParallelWindows() < c.Windows()/2 {
			t.Fatalf("%d of %d windows went to workers; the rig is meant to keep two ranges busy", c.ParallelWindows(), c.Windows())
		}
		c.SetWorkers(1)
		return at
	}
	serial, par := bites(1), bites(4)
	if len(serial) != len(par) {
		t.Fatalf("RunCapped(50) drained in %d calls on one goroutine, %d on four workers", len(serial), len(par))
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("RunCapped call %d stopped at %d events on one goroutine, %d on four workers", i, serial[i], par[i])
		}
	}

	// A probe's ns per event divides by the events that really ran.
	c := sparseCluster(ticks)
	var now int64
	var seen uint64
	cost := [2]int64{dispInline: 100, dispWorkers: 300}
	c.disp.clock = func() int64 {
		ev := c.Processed()
		now += int64(ev-seen) * cost[c.disp.mode]
		seen = ev
		return now
	}
	c.SetWorkers(4)
	c.Run()
	if c.ParallelWindows() == 0 {
		t.Fatal("no window went to workers")
	}
	if in, wk := c.ProbeNsPerEvent(); in != 100 || wk != 300 {
		t.Errorf("last probe reported %g/%g ns per event, want 100/300", in, wk)
	}
	c.SetWorkers(1)
}

package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine clock = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine pending = %d, want 0", e.Pending())
	}
}

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock after run = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: order=%v", order)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func() {})
}

func TestEngineAfterNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("After with negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestEngineEventsCanScheduleEvents(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.After(10, func() {
		fired = append(fired, e.Now())
		e.After(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("chained events fired at %v, want [10 15]", fired)
	}
}

func TestRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("RunUntil left clock at %v, want 100", e.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(200, func() { ran++ })
	e.RunUntil(100)
	if ran != 1 {
		t.Fatalf("RunUntil(100) executed %d events, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending after RunUntil = %d, want 1", e.Pending())
	}
	e.Run()
	if ran != 2 || e.Now() != 200 {
		t.Fatalf("after Run: ran=%d now=%v, want 2 / 200", ran, e.Now())
	}
}

func TestRunCappedDetectsLivelock(t *testing.T) {
	e := NewEngine()
	var loop func()
	loop = func() { e.After(1, loop) }
	e.After(0, loop)
	if e.RunCapped(100) {
		t.Fatal("RunCapped reported drain for a self-perpetuating event chain")
	}
}

func TestRunForRelative(t *testing.T) {
	e := NewEngine()
	e.RunFor(50)
	e.RunFor(50)
	if e.Now() != 100 {
		t.Fatalf("two RunFor(50) left clock at %v, want 100", e.Now())
	}
}

// Property: however a batch of events is scheduled, execution timestamps
// observed by the callbacks are non-decreasing and Now() never runs ahead
// of the event being delivered.
func TestEngineMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, d := range delays {
			at := Time(d)
			e.Schedule(at, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		last := Time(-1)
		for _, s := range seen {
			if s < last {
				return false
			}
			last = s
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPopMatchesSort: pushes and steps interleaved at random on heaps of up
// to 4,096 events pop in (at, key) order — each step runs the least pending
// event by a plain two-field comparison — with and without ReverseTies.
// Times come from a narrow range, so equal times are common and the key
// decides. Every round drains to empty through every size, so the last
// child group is both full and partial at each depth.
func TestPopMatchesSort(t *testing.T) {
	for _, reverse := range []bool{false, true} {
		e := NewEngine()
		if reverse {
			e.ReverseTies()
		}
		r := NewRand(4096)
		// want holds the pending events' (at, key), sorted descending, so
		// the least is last; each event's handler reports it as popped.
		var want []event
		var popped event
		after := func(x, y event) bool { return x.at > y.at || x.at == y.at && x.key > y.key }
		// fills[n%arity] marks a pop that left n events: the last child
		// group is full when n%arity is 1, partial otherwise.
		var fills [arity]bool
		push := func() {
			ev := event{at: Time(r.Intn(512)), key: (e.seq + 1) ^ uint64(e.cluster.tie)}
			e.push(ev.at, func() { popped = ev })
			i := sort.Search(len(want), func(i int) bool { return !after(want[i], ev) })
			want = append(want, event{})
			copy(want[i+1:], want[i:])
			want[i] = ev
		}
		pop := func() {
			n := len(e.heap) - 1
			fills[n%arity] = true
			if !e.Step() {
				t.Fatalf("reverse=%v: nothing popped from %d", reverse, n+1)
			}
			w := want[len(want)-1]
			want = want[:len(want)-1]
			if popped.at != w.at || popped.key != w.key {
				t.Fatalf("reverse=%v: popped (%d, %#x) from %d, want (%d, %#x)", reverse, popped.at, popped.key, n+1, w.at, w.key)
			}
		}
		for round := 0; round < 24; round++ {
			top := 1 + r.Intn(4096)
			for len(want) < top {
				if len(want) > 0 && r.Intn(10) < 3 {
					pop()
				} else {
					push()
				}
			}
			for len(want) > 0 {
				if r.Intn(10) < 2 {
					push()
				} else {
					pop()
				}
			}
		}
		for fill, seen := range fills {
			if !seen {
				t.Fatalf("reverse=%v: no pop left %d events modulo %d", reverse, fill, arity)
			}
		}
	}
}

package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// barrierStressSummary runs an adversarial 8-shard workload — lookahead 1,
// so nearly every event opens its own window — and returns a byte-exact
// summary of everything observable: per-shard event traces with
// timestamps, event totals, window/fusion counts, and cross-shard post
// counts. The workload mixes local schedule churn, PriData ring posts,
// and PriRelease fan-out posts so data posts, barrier-executed releases,
// free sprints, and fused windows all occur. With declareEdges the same
// traffic runs under a per-edge lookahead matrix instead of the uniform
// fallback. pin overrides the window dispatcher (pinNone leaves it
// measuring); the summary holds timeline facts only, so it may not depend
// on it.
func barrierStressSummary(t *testing.T, workers int, declareEdges bool, pin uint8) string {
	t.Helper()
	const (
		shards = 8
		maxHop = 400
	)
	c := NewCluster(shards, 1, 0xadbeef)
	c.disp.pin = pin
	if declareEdges {
		for i := 0; i < shards; i++ {
			c.DeclareEdge(i, (i+1)%shards, 1)
			c.DeclareEdge(i, (i*3+1)%shards, 2)
		}
	}
	traces := make([]*strings.Builder, shards)
	handlers := make([]func(any), shards)
	releases := make([]func(any), shards)
	for i := 0; i < shards; i++ {
		traces[i] = &strings.Builder{}
	}
	for i := 0; i < shards; i++ {
		i := i
		e := c.Shard(i)
		tr := traces[i]
		// Terminal sink for PriRelease fan-out: executes at the barrier,
		// records, and spawns nothing (keeps the token population bounded).
		releases[i] = func(a any) {
			fmt.Fprintf(tr, "s%d t%d rel h%d;", i, e.Now(), a.(int))
		}
		handlers[i] = func(a any) {
			hop := a.(int)
			fmt.Fprintf(tr, "s%d t%d h%d;", i, e.Now(), hop)
			// Local churn: events landing inside and beyond the current
			// 1ns window, so runTo stops mid-heap and resumes next window.
			e.Schedule(e.Now()+1, func() { fmt.Fprintf(tr, "s%d t%d churn;", i, e.Now()) })
			e.Schedule(e.Now()+3, func() { fmt.Fprintf(tr, "s%d t%d churn3;", i, e.Now()) })
			if hop >= maxHop {
				return
			}
			e.Post(c.Shard((i+1)%shards), 1, PriData, handlers[(i+1)%shards], hop+1)
			if hop%3 == 0 {
				j := (i*3 + 1) % shards
				e.Post(c.Shard(j), 2, PriRelease, releases[j], hop)
			}
		}
	}
	// Seed several shards at staggered times so windows start with real
	// cross-shard concurrency rather than one token walking a quiet ring.
	for i := 0; i < shards; i += 2 {
		i := i
		c.Shard(i).Schedule(Time(i%3), func() { handlers[i](0) })
	}
	c.SetWorkers(workers)
	c.Run()
	c.SetWorkers(1) // retire workers before the cluster goes out of scope
	switch par := c.ParallelWindows(); {
	case (workers == 1 || pin == pinInline) && par != 0:
		t.Errorf("workers=%d pin=%d: %d windows went to workers, want none", workers, pin, par)
	case workers > 1 && (pin == pinWorkers || pin == pinFlip) && par == 0:
		t.Errorf("workers=%d pin=%d: no window went to workers", workers, pin)
	}

	var sum strings.Builder
	fmt.Fprintf(&sum, "events=%d windows=%d fused=%d posts=%d\n",
		c.Processed(), c.Windows(), c.Fused(), c.Posted())
	for i := 0; i < shards; i++ {
		fmt.Fprintf(&sum, "shard%d=%d\n", i, c.Shard(i).ProcessedLocal())
	}
	for i := 0; i < shards; i++ {
		sum.WriteString(traces[i].String())
		sum.WriteByte('\n')
	}
	return sum.String()
}

// TestBarrierStressAdversarial drives the persistent-worker barrier with
// lookahead-1 window sizes and asserts the 8-worker run is byte-identical
// to the serial run: same event totals, same window and fusion counts,
// same per-shard traces. Run under -race by `make verify`, this is the
// regression witness for the parked-worker epoch barrier — any mid-window
// sharing or window-boundary reordering shows up as a trace diff or a
// race report. The dispatcher is blind to all of it: left measuring, pinned
// inline, pinned to the workers, or flipping every window, the summary is
// the same bytes — and the pinned runs keep the worker path under the race
// detector on every run, whatever the dispatcher would have measured on
// this host.
func TestBarrierStressAdversarial(t *testing.T) {
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	for _, declare := range []bool{false, true} {
		name := "uniform"
		if declare {
			name = "edge-matrix"
		}
		serial := barrierStressSummary(t, 1, declare, pinNone)
		if !strings.Contains(serial, "events=") || len(serial) < 1000 {
			t.Fatalf("%s: implausibly small serial summary:\n%s", name, serial)
		}
		for _, workers := range []int{2, 8} {
			for _, pin := range []uint8{pinNone, pinInline, pinWorkers, pinFlip} {
				par := barrierStressSummary(t, workers, declare, pin)
				if par != serial {
					t.Errorf("%s: workers=%d pin=%d summary differs from serial run\n--- serial head ---\n%.400s\n--- workers=%d head ---\n%.400s",
						name, workers, pin, serial, workers, par)
				}
			}
		}
	}
}

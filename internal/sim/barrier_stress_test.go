package sim

import (
	"fmt"
	"strings"
	"testing"
)

// barrierStress builds an adversarial 8-shard workload — lookahead 1, so
// nearly every event opens its own window — and returns the cluster with a
// function rendering a byte-exact summary of everything observable:
// per-shard event traces with timestamps, event totals and cross-shard post
// counts. The workload mixes local schedule churn, PriData ring posts, and
// side posts — every third at priLate — that land on a shard at the same
// instant as the ring's, so same-timestamp inbox ties across sources and
// priorities and windows without a post all occur. With declareEdges the
// same traffic runs with every edge declared, Post's check armed.
//
// Window and fusion counts stay out of the summary: they say how a run was
// cut up, and the two drivers compared below cut it differently on purpose.
func barrierStress(declareEdges bool) (*Cluster, func() string) {
	const (
		shards = 8
		maxHop = 400
	)
	c := NewCluster(shards, 1, 0xadbeef)
	if declareEdges {
		for i := 0; i < shards; i++ {
			c.DeclareEdge(i, (i+1)%shards, 1)
			c.DeclareEdge(i, (i*3+1)%shards, 2)
		}
	}
	traces := make([]*strings.Builder, shards)
	handlers := make([]func(any), shards)
	sides := make([]func(any), shards)
	for i := 0; i < shards; i++ {
		traces[i] = &strings.Builder{}
	}
	for i := 0; i < shards; i++ {
		i := i
		e := c.Shard(i)
		tr := traces[i]
		// Terminal sink for the side posts (spawns nothing, so the token
		// population stays bounded).
		sides[i] = func(a any) {
			fmt.Fprintf(tr, "s%d t%d side h%d;", i, e.Now(), a.(int))
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
			j := (i*3 + 1) % shards
			pri := PriData
			if hop%3 == 0 {
				pri = priLate
			}
			e.Post(c.Shard(j), 2, pri, sides[j], hop)
		}
	}
	// Seed several shards at staggered times so windows start with real
	// cross-shard concurrency rather than one token walking a quiet ring.
	for i := 0; i < shards; i += 2 {
		i := i
		c.Shard(i).Schedule(Time(i%3), func() { handlers[i](0) })
	}
	return c, func() string {
		var sum strings.Builder
		fmt.Fprintf(&sum, "events=%d posts=%d\n", c.Processed(), c.Posted())
		for i := 0; i < shards; i++ {
			fmt.Fprintf(&sum, "shard%d=%d\n", i, c.Shard(i).ProcessedLocal())
		}
		for i := 0; i < shards; i++ {
			sum.WriteString(traces[i].String())
			sum.WriteByte('\n')
		}
		return sum.String()
	}
}

// TestBarrierStressAdversarial drives the window engine with lookahead-1
// window sizes and asserts the run is byte-identical to the Step-driven
// replay of the same workload — one globally earliest event at a time, no
// horizon anywhere: same event totals, same posts, same per-shard traces. A
// horizon one tick too generous, a sprint that outlives a post, or an
// insertion that misplaces a post shows up as a trace diff.
func TestBarrierStressAdversarial(t *testing.T) {
	for _, declare := range []bool{false, true} {
		name := "uniform"
		if declare {
			name = "edges-declared"
		}
		oracle, render := barrierStress(declare)
		for oracle.Step() {
		}
		want := render()
		if !strings.Contains(want, "events=") || len(want) < 1000 {
			t.Fatalf("%s: implausibly small replay summary:\n%s", name, want)
		}
		c, render := barrierStress(declare)
		c.Run()
		if got := render(); got != want {
			t.Errorf("%s: windowed summary differs from the stepped replay\n--- stepped head ---\n%.400s\n--- windowed head ---\n%.400s",
				name, want, got)
		}
		// The windowed run has to have been one: many events per window
		// somewhere, and some windows in which nothing was posted.
		if c.Windows() == 0 || c.Windows() >= c.Processed() || c.Fused() == 0 {
			t.Errorf("%s: %d windows (%d fused) for %d events; want fewer windows than events and some fused",
				name, c.Windows(), c.Fused(), c.Processed())
		}
	}
}

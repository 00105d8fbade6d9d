package sim

import (
	"fmt"
	"strings"
	"testing"
)

// barrierStress builds an adversarial 8-shard workload — lookahead 1, so a
// post can land one tick ahead of its source — and returns the cluster, the
// log every event is noted in, and a function rendering a byte-exact summary
// of everything observable: per-shard event traces with timestamps, event
// totals and cross-shard post counts. The workload mixes local schedule
// churn, PriData ring posts, and side posts — every third at priLate — that
// land on a shard at the same instant as the ring's, so same-timestamp post
// ties across sources and priorities, and same-timestamp events on several
// shards, all occur. With declareEdges the same traffic runs with every edge
// declared, Post's check armed.
//
// Window and fusion counts stay out of the summary: they say how a run was
// cut up, and the two drivers compared below cut it differently on purpose.
func barrierStress(declareEdges bool) (*Cluster, *eventLog, func() string) {
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
	log := &eventLog{}
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
			log.note(e)
			fmt.Fprintf(tr, "s%d t%d side h%d;", i, e.Now(), a.(int))
		}
		handlers[i] = func(a any) {
			hop := a.(int)
			log.note(e)
			fmt.Fprintf(tr, "s%d t%d h%d;", i, e.Now(), hop)
			// Local churn one and three ticks ahead, level with the posts
			// below, so a run stops mid-heap for another shard's event and
			// resumes later.
			e.Schedule(e.Now()+1, func() { log.note(e); fmt.Fprintf(tr, "s%d t%d churn;", i, e.Now()) })
			e.Schedule(e.Now()+3, func() { log.note(e); fmt.Fprintf(tr, "s%d t%d churn3;", i, e.Now()) })
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
	// Seed several shards at staggered times so runs start with real
	// cross-shard concurrency rather than one token walking a quiet ring.
	for i := 0; i < shards; i += 2 {
		i := i
		c.Shard(i).Schedule(Time(i%3), func() { handlers[i](0) })
	}
	// Then one late token walks the quiet ring while shard 7 beats every 97
	// ticks: the token's shard is bounded only by the far beat, so its own
	// churn lies beyond the posts it makes, which must still run first.
	c.Shard(1).Schedule(1000, func() { handlers[1](maxHop - 40) })
	beat := c.Shard(shards - 1)
	var tick func()
	tick = func() {
		log.note(beat)
		fmt.Fprintf(traces[shards-1], "s%d t%d beat;", shards-1, beat.Now())
		if beat.Now() < 2000 {
			beat.After(97, tick)
		}
	}
	beat.Schedule(0, tick)
	return c, log, func() string {
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

// TestBarrierStressAdversarial drives Run through the lookahead-1 workload
// and holds its event log to a sort of itself by (timestamp, shard): a
// horizon one tick too generous, a post that fails to lower it, or a tie
// broken toward the higher shard shows up as an event out of place. The
// Step-driven replay must also render the same summary — same event totals,
// same posts, same per-shard traces.
func TestBarrierStressAdversarial(t *testing.T) {
	for _, declare := range []bool{false, true} {
		name := "uniform"
		if declare {
			name = "edges-declared"
		}
		c, log, render := barrierStress(declare)
		c.Run()
		got := render()
		if !strings.Contains(got, "events=") || len(got) < 1000 {
			t.Fatalf("%s: implausibly small summary:\n%s", name, got)
		}
		checkGlobalOrder(t, name, c, *log)
		if c.Fused() == 0 {
			t.Errorf("%s: no window without a post in %d windows", name, c.Windows())
		}
		stepped, _, render := barrierStress(declare)
		for stepped.Step() {
		}
		if want := render(); got != want {
			t.Errorf("%s: Run's summary differs from the stepped replay\n--- stepped head ---\n%.400s\n--- run head ---\n%.400s",
				name, want, got)
		}
	}
}

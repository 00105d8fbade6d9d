package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// render flattens a result into the exact bytes kitebench would print, so
// determinism tests compare observable output, not struct internals.
func render(r *Result) string {
	var b strings.Builder
	b.WriteString(r.Table.String())
	for _, n := range r.Notes {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSameExperimentConcurrentAndSequential runs each workload twice at the
// same time on separate goroutines and once more sequentially, asserting all
// three print byte-identical output. Run under -race this also proves the
// rigs share no mutable state; the mq case proves its queue totals are the
// rig's own, not counts another simulation in the process added to.
func TestSameExperimentConcurrentAndSequential(t *testing.T) {
	s := Quick()
	for _, tc := range []struct {
		name string
		run  func() string
	}{
		{"Fig7Latency", func() string { return render(Fig7Latency(s)) }},
		{"MQSummary", func() string { m := MQSummary(s, 2); return m.String() + "\n" + m.ShardLine() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a, b string
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { defer wg.Done(); a = tc.run() }()
			go func() { defer wg.Done(); b = tc.run() }()
			wg.Wait()
			seq := tc.run()

			if a != seq {
				t.Errorf("concurrent run A differs from sequential:\n--- A ---\n%s\n--- seq ---\n%s", a, seq)
			}
			if b != seq {
				t.Errorf("concurrent run B differs from sequential:\n--- B ---\n%s\n--- seq ---\n%s", b, seq)
			}
		})
	}
}

// TestRunAllParallelMatchesSequential runs a slice of the suite with one
// worker and with four, asserting byte-identical tables in both orders.
// This is the determinism-under-parallelism contract -parallel relies on.
func TestRunAllParallelMatchesSequential(t *testing.T) {
	specs, err := Lookup("FIG6,FIG7,FIG11,FIG4")
	if err != nil {
		t.Fatal(err)
	}
	s := Quick()
	seq := RunAll(specs, s, 1)
	par := RunAll(specs, s, 4)
	if len(seq) != len(par) {
		t.Fatalf("result count: sequential %d, parallel %d", len(seq), len(par))
	}
	for i := range seq {
		if got, want := render(par[i]), render(seq[i]); got != want {
			t.Errorf("%s: parallel output differs from sequential:\n--- parallel ---\n%s--- sequential ---\n%s",
				specs[i].ID, got, want)
		}
	}
}

// TestMQSummaryByteIdenticalAcrossParallelAndQueues asserts the -queues
// contract: the kitebench summary (experiment tables plus the mq lines) is
// byte-identical for every -parallel in {1,4,8} crossed with every -queues
// in {1,2,4}. The mq workload's totals and checksums are queue-invariant
// by construction — steering and striping change only the timing of
// deliveries, never their contents — and the tables never depended on the
// worker count.
func TestMQSummaryByteIdenticalAcrossParallelAndQueues(t *testing.T) {
	specs, err := Lookup("FIG7")
	if err != nil {
		t.Fatal(err)
	}
	s := Quick()
	var base string
	for _, par := range []int{1, 4, 8} {
		for _, q := range []int{1, 2, 4} {
			var b strings.Builder
			for _, r := range RunAll(specs, s, par) {
				b.WriteString(render(r))
			}
			b.WriteString(MQSummary(s, q).String())
			out := b.String()
			if base == "" {
				base = out
			} else if out != base {
				t.Errorf("parallel=%d queues=%d: summary differs from parallel=1 queues=1:\n--- got ---\n%s\n--- want ---\n%s",
					par, q, out, base)
			}
		}
	}
}

// TestMQDeterminismMatrix is the sharded event core's bit-reproducibility
// witness: for each queue count, the full mq summary INCLUDING the shard
// counters is byte-identical at every GOMAXPROCS. Cross-shard posts and
// per-shard event counts are timeline facts; nothing about the host may
// reach them. Run under -race by `make verify`.
func TestMQDeterminismMatrix(t *testing.T) {
	s := Quick()
	for _, q := range []int{1, 4, 8} {
		var base string
		var baseCfg string
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			m := MQSummary(s, q)
			runtime.GOMAXPROCS(prev)
			out := m.String() + "\n" + m.ShardLine()
			cfg := fmt.Sprintf("queues=%d procs=%d", q, procs)
			if base == "" {
				base, baseCfg = out, cfg
			} else if out != base {
				t.Errorf("%s differs from %s:\n--- got ---\n%s\n--- want ---\n%s",
					cfg, baseCfg, out, base)
			}
		}
	}
}

// TestRunAllPreservesOrder checks results come back in spec order even
// when later experiments finish first.
func TestRunAllPreservesOrder(t *testing.T) {
	specs, err := Lookup("FIG4C,FIG1A,TAB3")
	if err != nil {
		t.Fatal(err)
	}
	res := RunAll(specs, Quick(), 3)
	for i, sp := range specs {
		if res[i] == nil || res[i].ID != sp.ID {
			t.Errorf("slot %d: want %s, got %+v", i, sp.ID, res[i])
		}
	}
}

func TestLookup(t *testing.T) {
	specs, err := Lookup("fig11, FIG6")
	if err != nil {
		t.Fatal(err)
	}
	// Registry order, not filter order.
	if len(specs) != 2 || specs[0].ID != "FIG6" || specs[1].ID != "FIG11" {
		t.Fatalf("got %+v", specs)
	}

	if _, err := Lookup("FIG6,NOPE,ALSO_BAD"); err == nil {
		t.Fatal("want error for unknown IDs")
	} else {
		msg := err.Error()
		for _, want := range []string{"ALSO_BAD", "NOPE", "FIG6"} {
			if !strings.Contains(msg, want) {
				t.Errorf("error %q missing %q", msg, want)
			}
		}
	}
}

// TestEventsProcessedCounts asserts the telemetry counter advances when an
// experiment drives a workload.
func TestEventsProcessedCounts(t *testing.T) {
	before := EventsProcessed()
	Fig11DD(Quick())
	if after := EventsProcessed(); after <= before {
		t.Errorf("EventsProcessed did not advance: before=%d after=%d", before, after)
	}
}

package experiments

import (
	"runtime"
	"testing"
)

// TestFleetSummary checks the fleet workload end to end at a small
// scale: traffic and storage totals are nonzero, nothing drops, and the
// DRR lanes hold every well-behaved tenant at its full share under a
// 10x adversary.
func TestFleetSummary(t *testing.T) {
	f := FleetSummary(Quick(), 16)
	t.Log("\n" + f.String() + "\n" + f.ShardLine())
	if f.TenantTxFrames == 0 || f.TenantBlkBytes == 0 {
		t.Fatalf("empty fleet summary: %+v", f)
	}
	if f.Drops != 0 {
		t.Fatalf("fleet dropped %d frames", f.Drops)
	}
	if f.MinShare < 0.9 {
		t.Fatalf("fairness min share %.3f < 0.9", f.MinShare)
	}
	if f.Rounds == 0 || f.DemuxScans == 0 {
		t.Fatalf("lanes idle: %d rounds, %d demux scans", f.Rounds, f.DemuxScans)
	}
}

// TestFleetSummaryDeterministicAcrossCores checks every printed line —
// totals, checksums, fairness, lane and cluster counters — is
// byte-identical however many host cores the process may use.
func TestFleetSummaryDeterministicAcrossCores(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fleet runs")
	}
	run := func(procs int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f := FleetSummary(Quick(), 24)
		return f.String() + "\n" + f.ShardLine()
	}
	s1, s4 := run(1), run(4)
	if s1 != s4 {
		t.Fatalf("fleet summary differs across GOMAXPROCS:\n-- 1 --\n%s\n-- 4 --\n%s", s1, s4)
	}
}

// Command kitebench regenerates the paper's evaluation (§5): every figure
// and table, printed as text tables, plus the design-choice ablations.
//
// Usage:
//
//	kitebench [-full] [-only FIG7,FIG11] [-parallel N] [-ablations] [-blk] [-queues N] [-guests N]
//	          [-cpuprofile FILE] [-memprofile FILE]
//
// -full runs paper-scale workloads (more virtual seconds; wall-clock
// minutes); the default quick scale preserves every comparison's shape.
// -parallel N spreads independent experiments (and the Linux/Kite rig pair
// inside each) over up to N OS threads; output is byte-identical for any N
// because every simulation leg owns its entire world.
// -queues N runs the deterministic multi-queue workload (RSS-steered vif
// queues, striped vbd hardware queues) on rigs with N queues per device;
// its summary prints only queue-invariant totals and checksums, so the
// whole output stays byte-identical for any -parallel x -queues choice
// (scaling is measured by benchmark/'s net_mq4 and blk_mixed workloads).
// -guests N runs the fleet workload: N single-queue tenants on shared DRR
// service lanes; every line it prints is a timeline fact, byte-identical for
// any -parallel.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"kite/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run paper-scale workloads")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. FIG7,FIG11)")
	parallel := flag.Int("parallel", 1, "max experiment legs to run concurrently")
	ablations := flag.Bool("ablations", false, "also run the design-choice ablations")
	blk := flag.Bool("blk", false, "also run the deterministic block-path workload and print its summary")
	queues := flag.Int("queues", 0, "also run the deterministic multi-queue workload with this many queues per device")
	guests := flag.Int("guests", 0, "also run the fleet workload: this many single-queue tenants on shared DRR service lanes")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit (after a final GC)")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kitebench: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "kitebench: %v\n", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "kitebench: %v\n", err)
				os.Exit(2)
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "kitebench: %v\n", err)
				os.Exit(2)
			}
		}()
	}

	scale := experiments.Quick()
	if *full {
		scale = experiments.Full()
	}
	fmt.Printf("kitebench: scale=%s parallel=%d\n\n", scale.Name, *parallel)

	specs := experiments.Registry()
	if *only != "" {
		var err error
		specs, err = experiments.Lookup(*only)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kitebench: %v\n", err)
			os.Exit(2)
		}
	}

	start := time.Now()
	results := experiments.RunAll(specs, scale, *parallel)
	elapsed := time.Since(start)

	for _, res := range results {
		fmt.Println(res.Table.String())
		for _, note := range res.Notes {
			fmt.Printf("  note: %s\n", note)
		}
		fmt.Println()
	}

	events := experiments.EventsProcessed()

	if *blk {
		// A single self-contained simulation: the figures come from
		// simulated time and its own pool counters, so this line too is
		// byte-identical for any -parallel.
		bs := experiments.BlkSummary(scale)
		fmt.Printf("kitebench: blk %d ops / %d MB: %.1f ops/sec, %.1f MB/sec simulated, pool hit rate %.3f\n",
			bs.Ops, bs.Bytes>>20, bs.OpsPerSec, bs.BytesPerSec/1e6, bs.PoolHitRate)
	}
	if *queues > 0 {
		// Self-contained simulations whose printed totals and checksums are
		// queue-invariant: RSS steering and extent striping reorder work
		// across queues but never change what arrives. The same lines print
		// for -queues 1 and -queues 8 — scaling shows up in the MQ
		// benchmarks, not here.
		mq := experiments.MQSummary(scale, *queues)
		fmt.Println(mq.String())
		fmt.Println(mq.ShardLine())
	}
	if *guests > 0 {
		// The fleet workload: N single-queue tenants served by one network
		// and one storage driver domain through shared DRR service lanes.
		// Every line is a timeline fact, byte-identical for any -parallel.
		fl := experiments.FleetSummary(scale, *guests)
		fmt.Println(fl.String())
		fmt.Println(fl.ShardLine())
	}
	fmt.Printf("kitebench: %d experiments, %d simulation events in %.2fs wall (%.2fM events/sec)\n",
		len(results), events, elapsed.Seconds(),
		float64(events)/elapsed.Seconds()/1e6)

	if *ablations {
		fmt.Println("\n== Design-choice ablations ==")
		for _, a := range []*experiments.AblationResult{
			experiments.AblationPersistentGrants(scale),
			experiments.AblationIndirectSegments(scale),
			experiments.AblationBatching(scale),
			experiments.AblationThreadedModel(scale),
		} {
			fmt.Println(a.Table.String())
		}
	}
}

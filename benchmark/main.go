// Command benchmark is the performance instrument of this repository: five
// named closed-loop workloads over rigs built by internal/core, measured in
// two clocks (simulated time and host time), with an outside-in per-layer
// ledger. BENCHMARK.json at the repository root names the command, the
// workloads, and the metrics with their regression bounds; README.md in
// this directory explains every number.
//
//	go run ./benchmark                              # every workload, full shape
//	go run ./benchmark -workload net_rr -trace 0    # end-to-end metrics only
//	go run ./benchmark -quick                       # 1/50 of the work
//	go run ./benchmark -layers                      # micro-drivers only
//	go run ./benchmark -compare A.json B.json       # apply the bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all (one fresh process each)")
		seed     = flag.Uint64("seed", defaultSeed, "rig seed and seed of every generated input")
		seconds  = flag.Float64("seconds", 5, "host seconds of slices to measure")
		trace    = flag.String("trace", "", "0: end-to-end metrics, 1: per-layer metrics, unset: both")
		quick    = flag.Bool("quick", false, "1/50 of the work per slice, same code paths and checks")
		layers   = flag.Bool("layers", false, "run only the micro-drivers (kind C)")
		compare  = flag.Bool("compare", false, "compare two -json files: benchmark -compare A.json B.json")
		jsonOut  = flag.String("json", "", "also write the results to this file")
		bench    = flag.String("bench", "BENCHMARK.json", "bounds file for -compare")
		outDir   = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		n, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *bench)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if n > 0 {
			fmt.Printf("%d regression(s)\n", n)
			return 1
		}
		return 0
	}

	o := &options{seed: *seed, seconds: *seconds, quick: *quick, workers: runtime.NumCPU(), log: os.Stdout, outDir: *outDir}
	switch *trace {
	case "":
		o.mode = traceBoth
	case "0":
		o.mode = traceOff
	case "1":
		o.mode = traceOn
	default:
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}

	if *layers {
		got := runMicros(o, nil)
		var ms []metric
		for _, m := range micros {
			ms = append(ms, hostMetric(m.name, got[m.name], "ns"))
		}
		printTable(os.Stdout, "micro-drivers (host ns per call, median of batches)", ms)
		return 0
	}

	if *workload == "all" {
		return runAll(o, *trace, *jsonOut)
	}
	s := specByName(*workload)
	if s == nil {
		names := make([]string, len(specs))
		for i, sp := range specs {
			names[i] = sp.name
		}
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	saved, err := runOne(s, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := writeSaved(*jsonOut, []savedRun{saved}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}

// runOne measures one workload in this process and prints its report; the
// last line of output is the result object of the driver's contract.
func runOne(s *spec, o *options) (savedRun, error) {
	if o.quick {
		s = s.scaled(quickDivisor)
	}
	fmt.Fprintf(o.log, "workload %s: op = one %s\n  seed %#x, %d iterations x %d ops per slice, GOMAXPROCS %d\n",
		s.name, s.op, o.seed, s.iters, s.opsPerIter(), runtime.GOMAXPROCS(0))
	res, err := runWorkload(s, o)
	if err != nil {
		// Correctness failed: no number prints.
		printResultLine(o.log, false, 1, 1, nil)
		return savedRun{}, err
	}
	var ms []metric
	if o.mode != traceOn {
		e2e := res.endToEnd()
		printTable(o.log, "end-to-end (sim = simulated time, exact for a seed; host = this Go program, quartiles over slices or set-ups)", e2e)
		ms = append(ms, e2e...)
	}
	if o.mode != traceOff {
		res.micro = runMicros(o, res.tracer)
		layer := res.perLayer()
		printTable(o.log, "per-layer ledger (counts and simulated busy time per op, micro-driver and span host time)", layer)
		ms = mergeMetrics(ms, layer)
		path, err := res.tracer.write(o.outDir, s.name, o.seed)
		if err != nil {
			return savedRun{}, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(o.log, "\ntrace: %s (%d spans)\n", path, len(res.tracer.spans))
	}
	digest := fmt.Sprintf("%016x", uint64(res.ref().simSum))
	fmt.Fprintf(o.log, "\nsim digest %s (every simulated statistic, count and latency bucket of slice 0: a function of the seed alone)\n", digest)
	if n := min(len(res.untraced), len(res.traced)); n > 0 {
		fmt.Fprintf(o.log, "traced pass replayed %d untraced slices bit for bit (first one on a single cluster worker: %v)\n", n, res.workers1)
	}
	printResultLine(o.log, true, res.attempts, res.failed, driverSet(ms, o.mode))
	return savedRun{Workload: s.name, Seed: o.seed, Quick: o.quick, Digest: digest, Metrics: ms}, nil
}

// mergeMetrics appends the metrics of more that base does not already hold
// (allocs_per_op and ops_failed_share are in both sets).
func mergeMetrics(base, more []metric) []metric {
	have := make(map[string]bool, len(base))
	for _, m := range base {
		have[m.Name] = true
	}
	for _, m := range more {
		if !have[m.Name] {
			base = append(base, m)
		}
	}
	return base
}

// driverSet trims the printed metrics to what BENCHMARK.json lists for the
// mode: its end_to_end entries with -trace 0, its per_layer entries with
// -trace 1. allocs_per_op and ops_failed_share are zero today and
// sim_kite_linux_ratio exists on three workloads only, so the contract
// (bounded, never zero, on every workload) files them under per_layer.
func driverSet(ms []metric, mode traceMode) []metric {
	if mode != traceOff {
		return ms
	}
	var out []metric
	for _, m := range ms {
		if m.Name != "allocs_per_op" && m.Name != "ops_failed_share" {
			out = append(out, m)
		}
	}
	return out
}

// runAll runs every workload in a fresh process of this binary, so no
// workload inherits another's heap, and merges their -json files.
func runAll(o *options, trace, jsonOut string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var all []savedRun
	for _, s := range specs {
		part := filepath.Join(o.outDir, "result-"+s.name+".json")
		args := []string{"-workload", s.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
			"-out", o.outDir, "-json", part}
		if trace != "" {
			args = append(args, "-trace", trace)
		}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", s.name, err)
			return 1
		}
		f, err := readSaved(part)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		all = append(all, f.Runs...)
		fmt.Println()
	}
	if jsonOut != "" {
		if err := writeSaved(jsonOut, all); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return 0
}

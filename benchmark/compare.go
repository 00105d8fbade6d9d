package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
)

// savedRun is one workload run as -json writes it and -compare reads it.
type savedRun struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Quick    bool     `json:"quick"`
	Digest   string   `json:"sim_digest"`
	Metrics  []metric `json:"metrics"`
}

type savedFile struct {
	GoVersion string     `json:"go_version"`
	NumCPU    int        `json:"num_cpu"`
	Runs      []savedRun `json:"runs"`
}

func (f *savedFile) run(workload string) *savedRun {
	for i := range f.Runs {
		if f.Runs[i].Workload == workload {
			return &f.Runs[i]
		}
	}
	return nil
}

func writeSaved(path string, runs []savedRun) error {
	data, err := json.MarshalIndent(savedFile{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSaved(path string) (*savedFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f savedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) (map[string]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]bound, len(f.EndToEnd))
	for _, b := range f.EndToEnd {
		b.Bound = min(b.Bound, sameSeedBound(b.Name))
		out[b.Name] = b
	}
	return out, nil
}

// sameSeedBound caps a bound of BENCHMARK.json for -compare. The file's
// bounds are what the driver applies to runs on different seeds, so they
// carry the seed-to-seed movement of the simulated figures and the
// sandbox's slow spells. -compare only accepts two runs of one seed: there
// a simulated figure is exact, and a noisy host figure is "unresolved"
// rather than excused by a wide bound.
func sameSeedBound(name string) float64 {
	switch {
	case strings.HasPrefix(name, "sim_"):
		return 0.005
	case name == "wall_ns_per_op":
		return 0.08
	case name == "heap_inuse_mb":
		return 0.05
	}
	return math.Inf(1)
}

// Rules for the end-to-end figures BENCHMARK.json cannot bound (they are 0
// today, or defined on three workloads only) and for set-up's absolute floor.
const (
	allocsFloor   = 0.01  // allocs_per_op: any value above this that also grew
	setupFloorS   = 0.05  // setup_s must also worsen by this many seconds
	ratioRepeat   = 0.005 // sim_kite_linux_ratio: +-0.5 % repeat
	verdictOK     = "ok"
	verdictWorse  = "REGRESSION"
	verdictNoise  = "unresolved"
	verdictMoved  = "changed"
	verdictAbsent = "absent"
)

// judge compares metric m of run b against run a.
func judge(a, b metric, bounds map[string]bound) (verdict string, worse float64) {
	// worse is the relative change in the bad direction.
	rel := func(better string) float64 {
		if a.Value == 0 {
			if b.Value == a.Value {
				return 0
			}
			return math.Inf(1)
		}
		d := (b.Value - a.Value) / math.Abs(a.Value)
		if better == "higher" {
			d = -d
		}
		return d
	}
	switch a.Name {
	case "allocs_per_op":
		if b.Value > allocsFloor && b.Value > a.Value {
			return verdictWorse, rel("lower")
		}
		return verdictOK, rel("lower")
	case "ops_failed_share":
		if b.Value > a.Value {
			return verdictWorse, rel("lower")
		}
		return verdictOK, 0
	case "sim_kite_linux_ratio":
		if d := rel("lower"); math.Abs(d) > ratioRepeat {
			return verdictWorse, d
		}
		return verdictOK, rel("lower")
	}
	bd, bounded := bounds[a.Name]
	if !bounded {
		if a.Clock == "sim" && a.Value != b.Value {
			return verdictMoved, rel("lower")
		}
		return verdictOK, rel("lower")
	}
	d := rel(bd.Better)
	if a.Clock == "host" && a.Q != nil && b.Q != nil && a.Q.N > 1 &&
		math.Max(a.Q.spread(), b.Q.spread()) > bd.Bound {
		// Spread wider than the bound: no verdict, unless every reading of
		// b is better than every reading of a.
		if bd.Better == "lower" && b.Q.Q3 < a.Q.Q1 || bd.Better == "higher" && b.Q.Q1 > a.Q.Q3 {
			return verdictOK, d
		}
		return verdictNoise, d
	}
	if d > bd.Bound && !(a.Name == "setup_s" && b.Value-a.Value <= setupFloorS) {
		return verdictWorse, d
	}
	if a.Clock == "sim" && d != 0 {
		return verdictMoved, d
	}
	return verdictOK, d
}

// compareFiles prints one row per workload x end-to-end metric and returns
// the number of regressions. Per-layer metrics are not gated: simulated
// ones that moved are listed, since a change meant only to speed up the
// simulator must leave all of them identical.
func compareFiles(w io.Writer, pathA, pathB, benchPath string) (regressions int, err error) {
	fa, err := readSaved(pathA)
	if err != nil {
		return 0, err
	}
	fb, err := readSaved(pathB)
	if err != nil {
		return 0, err
	}
	bounds, err := readBounds(benchPath)
	if err != nil {
		return 0, err
	}
	gated := func(m metric) bool {
		_, ok := bounds[m.Name]
		return ok || m.Name == "allocs_per_op" || m.Name == "ops_failed_share" || m.Name == "sim_kite_linux_ratio"
	}
	// Simulated figures are exact for a seed and a slice size, and for
	// nothing else: other pairs are refused before a row prints.
	for _, ra := range fa.Runs {
		if rb := fb.run(ra.Workload); rb != nil && (ra.Seed != rb.Seed || ra.Quick != rb.Quick) {
			return 0, fmt.Errorf("%s: %s has seed %#x quick=%v, %s has seed %#x quick=%v: only runs of one seed and one size compare",
				ra.Workload, pathA, ra.Seed, ra.Quick, pathB, rb.Seed, rb.Quick)
		}
	}
	fmt.Fprintf(w, "%-12s %-28s %16s %16s %9s  %s\n", "workload", "metric", "A", "B", "worse by", "verdict")
	for _, ra := range fa.Runs {
		rb := fb.run(ra.Workload)
		if rb == nil {
			fmt.Fprintf(w, "%-12s %-28s %16s %16s %9s  %s\n", ra.Workload, "*", "", "", "", verdictAbsent)
			regressions++
			continue
		}
		inB := make(map[string]metric, len(rb.Metrics))
		for _, m := range rb.Metrics {
			inB[m.Name] = m
		}
		moved := 0
		for _, ma := range ra.Metrics {
			mb, ok := inB[ma.Name]
			if !ok {
				continue // the two files came from different trace modes
			}
			verdict, worse := judge(ma, mb, bounds)
			if !gated(ma) {
				if verdict == verdictMoved {
					moved++
					fmt.Fprintf(w, "%-12s %-28s %16.8g %16.8g %8.2f%%  %s (per-layer, not gated)\n",
						ra.Workload, ma.Name, ma.Value, mb.Value, 100*worse, verdict)
				}
				continue
			}
			if verdict == verdictWorse {
				regressions++
			}
			fmt.Fprintf(w, "%-12s %-28s %16.8g %16.8g %8.2f%%  %s\n",
				ra.Workload, ma.Name, ma.Value, mb.Value, 100*worse, verdict)
		}
		same := "identical"
		if ra.Digest != rb.Digest {
			same = fmt.Sprintf("DIFFERENT (%s vs %s)", ra.Digest, rb.Digest)
		}
		fmt.Fprintf(w, "%-12s sim digest %s; %d per-layer simulated metrics moved\n", ra.Workload, same, moved)
	}
	return regressions, nil
}

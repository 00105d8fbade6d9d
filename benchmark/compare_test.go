package main

import (
	"io"
	"path/filepath"
	"testing"
)

func TestJudge(t *testing.T) {
	bounds := map[string]bound{
		"wall_ns_per_op":  {Name: "wall_ns_per_op", Better: "lower", Bound: 0.08},
		"setup_s":         {Name: "setup_s", Better: "lower", Bound: 0.25},
		"sim_ops_per_sec": {Name: "sim_ops_per_sec", Better: "higher", Bound: 0.005},
	}
	host := func(name string, v, q1, q3 float64) metric {
		return metric{Name: name, Value: v, Clock: "host", Q: &quartiles{Median: v, Q1: q1, Q3: q3, N: 5}}
	}
	sim := func(name string, v float64) metric { return metric{Name: name, Value: v, Clock: "sim"} }
	cases := []struct {
		what string
		a, b metric
		want string
	}{
		{"wall within bound", host("wall_ns_per_op", 100, 99, 101), host("wall_ns_per_op", 105, 104, 106), verdictOK},
		{"wall past bound", host("wall_ns_per_op", 100, 99, 101), host("wall_ns_per_op", 110, 109, 111), verdictWorse},
		{"wall too noisy to tell", host("wall_ns_per_op", 100, 90, 110), host("wall_ns_per_op", 110, 100, 120), verdictNoise},
		{"noisy but every reading better", host("wall_ns_per_op", 100, 90, 110), host("wall_ns_per_op", 70, 65, 80), verdictOK},
		{"set-up worse by share but under 50 ms", host("setup_s", 0.001, 0.001, 0.001), host("setup_s", 0.002, 0.002, 0.002), verdictOK},
		{"set-up worse by share and by 50 ms", host("setup_s", 1, 1, 1), host("setup_s", 1.5, 1.5, 1.5), verdictWorse},
		{"sim throughput identical", sim("sim_ops_per_sec", 1000), sim("sim_ops_per_sec", 1000), verdictOK},
		{"sim throughput moved inside bound", sim("sim_ops_per_sec", 1000), sim("sim_ops_per_sec", 999), verdictMoved},
		{"sim throughput fell past bound", sim("sim_ops_per_sec", 1000), sim("sim_ops_per_sec", 990), verdictWorse},
		{"sim throughput rose", sim("sim_ops_per_sec", 1000), sim("sim_ops_per_sec", 1100), verdictMoved},
		{"allocs stay zero", sim("allocs_per_op", 0), sim("allocs_per_op", 0.001), verdictOK},
		{"allocs appear", sim("allocs_per_op", 0), sim("allocs_per_op", 0.5), verdictWorse},
		{"a failure appears", sim("ops_failed_share", 0), sim("ops_failed_share", 1e-9), verdictWorse},
		{"kite/linux ratio repeats", sim("sim_kite_linux_ratio", 0.79), sim("sim_kite_linux_ratio", 0.791), verdictOK},
		{"kite/linux ratio drifts either way", sim("sim_kite_linux_ratio", 0.79), sim("sim_kite_linux_ratio", 0.70), verdictWorse},
		{"ungated count moved", sim("sim.events_per_op", 15), sim("sim.events_per_op", 14), verdictMoved},
	}
	for _, c := range cases {
		if got, _ := judge(c.a, c.b, bounds); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.what, got, c.want)
		}
	}
}

// TestCompareFiles holds -compare to its premise: it takes two runs of one
// seed and one size, and applies the same-seed bounds whatever cross-seed
// tolerance BENCHMARK.json grants the driver.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	save := func(name string, seed uint64, quick bool, p99 float64) string {
		path := filepath.Join(dir, name)
		run := savedRun{Workload: "net_rr", Seed: seed, Quick: quick, Digest: "0",
			Metrics: []metric{{Name: "sim_lat_p99_us", Value: p99, Unit: "sim_us", Clock: "sim"}}}
		if err := writeSaved(path, []savedRun{run}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := save("a.json", 1, false, 100)
	for _, c := range []struct {
		what        string
		other       string
		regressions int
		refused     bool
	}{
		{"identical", save("same.json", 1, false, 100), 0, false},
		{"p99 0.4 % worse", save("moved.json", 1, false, 100.4), 0, false},
		{"p99 4.9 % worse, inside the driver's bound", save("worse.json", 1, false, 104.9), 1, false},
		{"another seed", save("seed.json", 2, false, 100), 0, true},
		{"a -quick run against a full one", save("quick.json", 1, true, 100), 0, true},
	} {
		n, err := compareFiles(io.Discard, base, c.other, "../BENCHMARK.json")
		if (err != nil) != c.refused || n != c.regressions {
			t.Errorf("%s: %d regressions, error %v; want %d, refused %v", c.what, n, err, c.regressions, c.refused)
		}
	}
}

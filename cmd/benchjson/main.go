// Command benchjson converts `go test -bench` output on stdin into a small
// JSON document on stdout, so `make bench` can snapshot benchmark numbers
// (BENCH_net.json) that tooling and PR descriptions can diff.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// result is one parsed benchmark line.
type result struct {
	Name            string  `json:"name"`
	Iterations      int64   `json:"iterations"`
	NsPerOp         float64 `json:"ns_per_op"`
	FramesPerSec    float64 `json:"frames_per_sec,omitempty"`
	BytesPerSec     float64 `json:"bytes_per_sec,omitempty"`
	SimFramesPerSec float64 `json:"sim_frames_per_sec,omitempty"`
	SimBytesPerSec  float64 `json:"sim_bytes_per_sec,omitempty"`
	// NsPerFrame is wall-clock nanoseconds per simulated frame (the
	// benchmark's own ns/frame metric) — host-machine dependent.
	NsPerFrame  float64 `json:"ns_per_frame,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// NsPerGuestOp is the virtual (simulated) nanoseconds of driver-domain
	// time one guest operation costs, derived from simframes/sec on
	// /guests=N sweep entries. Virtual time is deterministic and identical
	// on every host, so the scaling gate compares this; the wall ns/frame
	// ratio across fleet sizes (what the per-tenant working set costs this
	// program) is reported beside it and not gated yet.
	NsPerGuestOp float64 `json:"ns_per_guest_op,omitempty"`
	// PostsPerFrame and EventsPerFrame are the cluster posts and engine
	// events one delivered frame cost (exact simulated counts);
	// BytesPerTenant is the heap in use after set-up divided by the guest
	// count. Reported by the fleet sweep.
	PostsPerFrame  float64 `json:"posts_per_frame,omitempty"`
	EventsPerFrame float64 `json:"events_per_frame,omitempty"`
	BytesPerTenant float64 `json:"bytes_per_tenant,omitempty"`
}

// fillPerGuest derives ns_per_guest_op for fleet-sweep entries (/guests=N)
// from their virtual throughput.
func fillPerGuest(results []result) {
	for i := range results {
		if strings.Contains(results[i].Name, "/guests=") && results[i].SimFramesPerSec > 0 {
			results[i].NsPerGuestOp = 1e9 / results[i].SimFramesPerSec
		}
	}
}

// benchName strips the trailing -N GOMAXPROCS suffix go test appends, and
// only that: sub-benchmark names (Benchmark/queues=4-8) may themselves
// contain dashes, so cut at the LAST dash and only when digits follow.
func benchName(field string) string {
	if i := strings.LastIndex(field, "-"); i > 0 {
		if _, err := strconv.Atoi(field[i+1:]); err == nil {
			return field[:i]
		}
	}
	return field
}

func main() {
	gateAllocs := flag.String("gate-allocs", "", "comma-separated benchmark entries that must report 0 allocs/op; exit 1 otherwise")
	gateFlat := flag.String("gate-flat", "", "comma-separated BIG:SMALL@MAX entries (e.g. Fleet/guests=1024:Fleet/guests=64@1.25); the BIG entry's ns_per_guest_op must stay <= MAX x the SMALL entry's. Compares virtual per-guest cost, which is deterministic across hosts. Exit 1 on any miss")
	flag.Parse()
	var results []result
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		r := result{Name: benchName(fields[0])}
		r.Iterations, _ = strconv.ParseInt(fields[1], 10, 64)
		// Remaining fields come in "<value> <unit>" pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "frames/sec":
				r.FramesPerSec = v
			case "bytes/sec":
				r.BytesPerSec = v
			case "simframes/sec":
				r.SimFramesPerSec = v
			case "simbytes/sec":
				r.SimBytesPerSec = v
			case "ns/frame":
				r.NsPerFrame = v
			case "posts/frame":
				r.PostsPerFrame = v
			case "events/frame":
				r.EventsPerFrame = v
			case "B/tenant":
				r.BytesPerTenant = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			}
		}
		results = append(results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	fillPerGuest(results)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	if *gateAllocs != "" {
		for _, g := range strings.Split(*gateAllocs, ",") {
			checkGateAllocs(results, strings.TrimSpace(g))
		}
	}
	if *gateFlat != "" {
		for _, g := range strings.Split(*gateFlat, ",") {
			checkGateFlat(results, strings.TrimSpace(g))
		}
	}
}

// checkGateFlat fails the run if the BIG entry's virtual per-guest cost
// exceeds MAX times the SMALL entry's (gate format BIG:SMALL@MAX). This is
// the fleet-scaling flatness gate: ns_per_guest_op is simulated time, so
// the comparison is exact and machine-independent — any miss is a real
// O(fleet) term creeping back into the data plane, not host cache noise.
func checkGateFlat(results []result, gate string) {
	spec := gate
	i := strings.LastIndex(spec, "@")
	if i < 0 {
		fmt.Fprintf(os.Stderr, "benchjson: bad -gate-flat entry %q (want BIG:SMALL@MAX)\n", gate)
		os.Exit(1)
	}
	max, err := strconv.ParseFloat(spec[i+1:], 64)
	if err != nil || max <= 0 {
		fmt.Fprintf(os.Stderr, "benchjson: bad -gate-flat ratio in %q\n", gate)
		os.Exit(1)
	}
	names := strings.SplitN(spec[:i], ":", 2)
	if len(names) != 2 {
		fmt.Fprintf(os.Stderr, "benchjson: bad -gate-flat entry %q (want BIG:SMALL@MAX)\n", gate)
		os.Exit(1)
	}
	find := func(name string) *result {
		if !strings.HasPrefix(name, "Benchmark") {
			name = "Benchmark" + name
		}
		for j := range results {
			if results[j].Name == name {
				return &results[j]
			}
		}
		fmt.Fprintf(os.Stderr, "benchjson: flatness gate entry %s not found in benchmark output\n", name)
		os.Exit(1)
		return nil
	}
	big, small := find(names[0]), find(names[1])
	if big.NsPerGuestOp <= 0 || small.NsPerGuestOp <= 0 {
		fmt.Fprintf(os.Stderr, "benchjson: flatness gate %s needs ns_per_guest_op on both entries (missing simframes/sec metric?)\n", gate)
		os.Exit(1)
	}
	ratio := big.NsPerGuestOp / small.NsPerGuestOp
	if ratio > max {
		fmt.Fprintf(os.Stderr,
			"benchjson: flatness gate %s failed: measured %s=%.1f / %s=%.1f ns_per_guest_op, ratio %.3f, required <= %.2f\n",
			gate, big.Name, big.NsPerGuestOp, small.Name, small.NsPerGuestOp, ratio, max)
		os.Exit(1)
	}
}

// checkGateAllocs fails the run if the gated entry allocates: steady state
// must stay allocation-free at every scale.
func checkGateAllocs(results []result, gate string) {
	for _, r := range results {
		if r.Name != gate {
			continue
		}
		if r.AllocsPerOp != 0 {
			fmt.Fprintf(os.Stderr, "benchjson: allocs gate %s failed: measured %d allocs/op (%d B/op), required 0 allocs/op\n",
				gate, r.AllocsPerOp, r.BytesPerOp)
			os.Exit(1)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "benchjson: gate %s not found in benchmark output\n", gate)
	os.Exit(1)
}

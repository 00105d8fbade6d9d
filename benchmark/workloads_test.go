package main

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"testing"
)

// testSpec returns the workload as the package tests run it: the fleet cut
// to 64 guests so `go test ./...` stays at a few seconds, and the -quick
// slices cut further under the race detector.
func testSpec(t *testing.T, name string) *spec {
	t.Helper()
	s := specByName(name).scaled(quickDivisor * raceDivisor)
	if s.guests > 64 {
		s.guests = 64
	}
	return s
}

func testOptions(t *testing.T, seed uint64, workers int) *options {
	return &options{seed: seed, quick: true, mode: traceBoth, workers: workers, log: io.Discard, outDir: t.TempDir()}
}

// TestWorkloadsQuick runs every micro-driver and every workload end to end at
// -quick with every correctness check on, and holds the program to
// BENCHMARK.json: the
// workloads it names exist, and each run prints exactly the end_to_end and
// per_layer metrics it lists, with the listed units.
func TestWorkloadsQuick(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type listed struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []listed                `json:"end_to_end"`
		PerLayer  []listed                `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(bench.Workloads), len(specs))
	}
	// Every kind-C micro-driver at -quick: each must build its fixture,
	// survive its own checks, and report a positive time.
	micro := runMicros(&options{quick: true}, nil)
	seen := map[string]bool{}
	for _, m := range micros {
		if seen[m.name] {
			t.Errorf("micro-driver %s is registered twice", m.name)
		}
		seen[m.name] = true
		if q := micro[m.name]; q.N != microBatches || !(q.Median > 0) {
			t.Errorf("%s: %+v", m.name, q)
		}
	}
	for _, w := range bench.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if specByName(w.Name) == nil {
				t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
			}
			res, err := runWorkload(testSpec(t, w.Name), testOptions(t, defaultSeed, runtime.NumCPU()))
			if err != nil {
				t.Fatal(err)
			}
			res.micro = micro
			if res.failed != 0 || res.attempts == 0 {
				t.Errorf("%d of %d ops failed", res.failed, res.attempts)
			}
			check := func(kind string, want []listed, got []metric) {
				have := map[string]string{}
				for _, m := range got {
					have[m.Name] = m.Unit
				}
				for _, l := range want {
					if unit, ok := have[l.Name]; !ok {
						t.Errorf("%s metric %s is listed but not printed", kind, l.Name)
					} else if unit != l.Unit {
						t.Errorf("%s metric %s printed in %q, listed in %q", kind, l.Name, unit, l.Unit)
					}
					delete(have, l.Name)
				}
				for name := range have {
					t.Errorf("%s metric %s is printed but not listed", kind, name)
				}
			}
			check("end_to_end", bench.EndToEnd, driverSet(res.endToEnd(), traceOff))
			check("per_layer", bench.PerLayer, res.perLayer())
			if _, err := res.tracer.write(t.TempDir(), w.Name, defaultSeed); err != nil {
				t.Errorf("writing the trace: %v", err)
			}
		})
	}
}

// TestSimDigestSeedsAndWorkers pins the two-clock contract on the cluster
// rigs: the simulated digest is a function of the seed alone — one worker
// or many — and a different seed gives a different digest.
func TestSimDigestSeedsAndWorkers(t *testing.T) {
	for _, name := range []string{"net_mq4", "fleet_1024"} {
		name := name
		t.Run(name, func(t *testing.T) {
			digest := func(seed uint64, workers int) digest {
				o := testOptions(t, seed, workers)
				o.mode = traceOff
				res, err := runWorkload(testSpec(t, name), o)
				if err != nil {
					t.Fatal(err)
				}
				return res.ref().simSum
			}
			one := digest(defaultSeed, 1)
			// Ask for more workers than a one-core host has cores: the cluster
			// then really runs shard goroutines, which is what must not matter.
			if many := digest(defaultSeed, max(runtime.NumCPU(), 4)); many != one {
				t.Errorf("seed %#x: digest %016x with one worker, %016x with many", defaultSeed, uint64(one), uint64(many))
			}
			if other := digest(heldOutSeed, 1); other == one {
				t.Errorf("seeds %#x and %#x give the same digest %016x", defaultSeed, heldOutSeed, uint64(one))
			}
		})
	}
}

func TestScaledKeepsWholePeriods(t *testing.T) {
	for _, s := range specs {
		q := s.scaled(quickDivisor)
		if q.iters%s.period != 0 || q.warm%s.period != 0 || q.iters == 0 || q.warm == 0 {
			t.Errorf("%s: -quick gives %d iterations and %d warm-up for period %d", s.name, q.iters, q.warm, s.period)
		}
		if s.iters%s.period != 0 || s.warm%s.period != 0 {
			t.Errorf("%s: %d iterations and %d warm-up are not whole periods of %d", s.name, s.iters, s.warm, s.period)
		}
	}
}

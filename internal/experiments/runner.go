package experiments

import (
	"fmt"
	"sort"
	"strings"

	"kite/internal/core"
	"kite/internal/fanout"
)

// This file is the parallel experiment runner. Every experiment builds its
// own simulated testbed (engines, hypervisor, xenstore, registries are all
// per-System — nothing in the simulation is package-level), so independent
// experiments, and the Linux/Kite rig pair inside each, are embarrassingly
// parallel: each leg is single-threaded and bit-for-bit deterministic on
// its own goroutine, and a bounded worker pool only decides how many legs
// run at once, never what any leg computes. The goroutines themselves live
// in internal/fanout, which cannot import a simulation; this package, like
// every other under internal/, has no `go`, channel or sync of its own
// (kitelint's simdet).

// Spec names one runnable experiment of the evaluation suite.
type Spec struct {
	ID    string
	Title string
	Run   func(Scale) *Result
}

// Registry returns every experiment of the paper's evaluation (§5) in
// presentation order.
func Registry() []Spec {
	return []Spec{
		{"FIG1A", "driver CVEs per year", func(Scale) *Result { return Fig1aDriverCVEs() }},
		{"FIG1B", "ROP gadget totals", func(Scale) *Result { return Fig1bFig5ROP() }},
		{"FIG4", "footprint (syscalls, image)", func(Scale) *Result { return Fig4Footprint() }},
		{"FIG4C", "boot time", func(Scale) *Result { return Fig4cBootTime() }},
		{"TAB3", "CVE mitigation matrix", func(Scale) *Result { return Table3() }},
		{"FIG6", "nuttcp UDP throughput", Fig6Nuttcp},
		{"FIG7", "network latency", Fig7Latency},
		{"FIG8", "Apache throughput", Fig8Apache},
		{"FIG9", "Redis throughput", Fig9Redis},
		{"FIG10", "MySQL OLTP (network)", Fig10MySQL},
		{"FIG11", "dd sequential", Fig11DD},
		{"FIG12", "sysbench fileio", Fig12FileIO},
		{"FIG13", "MySQL OLTP (storage)", Fig13MySQLStorage},
		{"FIG14", "filebench fileserver", Fig14Fileserver},
		{"FIG15", "filebench MongoDB", Fig15Mongo},
		{"FIG16", "filebench webserver", Fig16Webserver},
		{"DHCP", "DHCP daemon VM latency", DHCPLatency},
	}
}

// Lookup resolves a comma-separated, case-insensitive ID filter against
// the registry, preserving registry order. Unknown IDs are an error naming
// the valid set — a silent empty run hides typos.
func Lookup(only string) ([]Spec, error) {
	all := Registry()
	want := make(map[string]bool)
	for _, id := range strings.Split(strings.ToUpper(only), ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[id] = true
		}
	}
	var specs []Spec
	for _, sp := range all {
		if want[sp.ID] {
			specs = append(specs, sp)
			delete(want, sp.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want { //kite:orderok keys are sorted before use
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		valid := make([]string, len(all))
		for i, sp := range all {
			valid[i] = sp.ID
		}
		return nil, fmt.Errorf("unknown experiment ID(s) %s (valid: %s)",
			strings.Join(unknown, ","), strings.Join(valid, ","))
	}
	return specs, nil
}

// RunAll executes the specs across a pool of workers goroutines and
// returns results in spec order. The scale handed to each experiment
// carries the pool, so the Linux/Kite pair inside an experiment also
// spreads over spare workers. workers <= 1 degenerates to a sequential
// run; any worker count produces byte-identical results because every leg
// owns its whole simulation.
func RunAll(specs []Spec, s Scale, workers int) []*Result {
	s.pool = fanout.NewPool(workers)
	return fanout.Each(s.pool, len(specs), func(i int) *Result { return specs[i].Run(s) })
}

// EventsProcessed returns the simulation events retired by workloads so
// far in this process (rig handshakes excluded): drive() adds each run's
// count to fanout's tally. Telemetry only — it powers kitebench's
// events/sec summary line and never feeds back into a simulation.
func EventsProcessed() uint64 { return fanout.Counted() }

// bothKinds evaluates fn for the Linux baseline and the Kite domain,
// concurrently when the scale's pool has a spare worker, and returns both
// results. Each invocation of fn builds and drives a private rig, so the
// two sides share nothing.
func bothKinds[T any](s Scale, fn func(kind core.DriverKind) T) (linux, kite T) {
	s.pool.Pair(
		func() { linux = fn(core.KindLinux) },
		func() { kite = fn(core.KindKite) })
	return linux, kite
}

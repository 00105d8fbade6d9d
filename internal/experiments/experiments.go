// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated testbed. Each experiment builds fresh
// Linux-baseline and Kite rigs from the same seed, drives the same
// workload over both, and returns rows ready for rendering plus the
// quantities shape_test.go's table asserts on (who wins, by what factor).
//
// Scale selects run sizes: Quick, kitebench's default, keeps virtual
// durations and request counts small; Full approaches the paper's
// parameters (minutes of virtual time — still seconds of wall clock).
package experiments

import (
	"fmt"

	"kite/internal/core"
	"kite/internal/fanout"
	"kite/internal/metrics"
	"kite/internal/sim"
)

// Scale sizes the experiment runs.
type Scale struct {
	Name string
	// Network scales.
	NuttcpDur   sim.Time
	PingCount   int
	NetperfTxns int
	MemtierOps  int
	ABRequests  int
	RedisOps    int
	OLTPDur     sim.Time
	// Storage scales.
	DDBytes      int64
	FileIODur    sim.Time
	FileIOBytes  int64
	FilebenchDur sim.Time
	// Repetitions for RSD (Table 4).
	Reps int

	// pool, when set by RunAll, lets an experiment fan its Linux/Kite rig
	// pair over spare workers (see bothKinds). Nil means fully sequential.
	pool *fanout.Pool
}

// Quick returns kitebench's default scale.
func Quick() Scale {
	return Scale{
		Name:         "quick",
		NuttcpDur:    15 * sim.Millisecond,
		PingCount:    20,
		NetperfTxns:  100,
		MemtierOps:   300,
		ABRequests:   60,
		RedisOps:     3000,
		OLTPDur:      15 * sim.Millisecond,
		DDBytes:      48 << 20,
		FileIODur:    15 * sim.Millisecond,
		FileIOBytes:  96 << 20,
		FilebenchDur: 15 * sim.Millisecond,
		Reps:         3,
	}
}

// Full returns a scale closer to the paper's run sizes.
func Full() Scale {
	return Scale{
		Name:         "full",
		NuttcpDur:    200 * sim.Millisecond,
		PingCount:    100,
		NetperfTxns:  1000,
		MemtierOps:   2000,
		ABRequests:   400,
		RedisOps:     20000,
		OLTPDur:      100 * sim.Millisecond,
		DDBytes:      512 << 20,
		FileIODur:    100 * sim.Millisecond,
		FileIOBytes:  512 << 20,
		FilebenchDur: 100 * sim.Millisecond,
		Reps:         3,
	}
}

// Pair holds one metric measured on both driver-domain kinds.
type Pair struct {
	Metric string
	Linux  float64
	Kite   float64
	Unit   string
}

// Parity reports whether the two sides agree within factor f.
func (p Pair) Parity(f float64) bool { return metrics.WithinFactor(p.Kite, p.Linux, f) }

// Result is one experiment's output.
type Result struct {
	ID    string // e.g. "FIG7"
	Title string
	Pairs []Pair
	Table *metrics.Table
	// Notes records paper-vs-measured commentary for EXPERIMENTS.md.
	Notes []string
}

// AddPair appends a metric pair and a rendered row.
func (r *Result) AddPair(metric string, linux, kite float64, unit string) {
	r.Pairs = append(r.Pairs, Pair{Metric: metric, Linux: linux, Kite: kite, Unit: unit})
	if r.Table != nil {
		r.Table.AddRow(metric,
			metrics.FormatFloat(linux), metrics.FormatFloat(kite),
			metrics.FormatFloat(metrics.Ratio(kite, linux)), unit)
	}
}

// Pair returns the named pair (nil if missing).
func (r *Result) Pair(metric string) *Pair {
	for i := range r.Pairs {
		if r.Pairs[i].Metric == metric {
			return &r.Pairs[i]
		}
	}
	return nil
}

// newResult builds a Result with the standard linux/kite table shape.
func newResult(id, title string) *Result {
	return &Result{
		ID: id, Title: title,
		Table: metrics.NewTable(fmt.Sprintf("%s: %s", id, title),
			"metric", "linux", "kite", "kite/linux", "unit"),
	}
}

// mustNetRig builds a network rig or panics (experiments treat setup
// failure as programmer error).
func mustNetRig(kind core.DriverKind, seed uint64) *core.NetworkRig {
	rig, err := core.NewNetworkRig(kind, seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rig
}

// mustNetRigCfg builds a network rig from the full config or panics.
func mustNetRigCfg(cfg core.NetworkRigConfig) *core.NetworkRig {
	rig, err := core.NewNetworkRigCfg(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rig
}

// mustStorRig builds a storage rig or panics.
func mustStorRig(cfg core.StorageRigConfig) *core.StorageRig {
	rig, err := core.NewStorageRig(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return rig
}

// await starts a generator with its report callback and drives sys until
// it reports, under drive's cap; it returns the report.
func await[T any](sys *core.System, cap uint64, start func(done func(T))) T {
	var out T
	got := false
	start(func(r T) { out, got = r, true })
	drive(sys, func() bool { return got }, cap)
	return out
}

// drive runs a rig's engine until done() or the cap; panics on livelock so
// experiments fail loudly. Retired events feed the process-wide telemetry
// behind EventsProcessed.
func drive(sys *core.System, done func() bool, cap uint64) {
	start := sys.Eng.Processed()
	ok := sys.RunReady(done, cap)
	fanout.Count(sys.Eng.Processed() - start)
	if !ok {
		panic("experiments: workload did not complete (event cap)")
	}
}

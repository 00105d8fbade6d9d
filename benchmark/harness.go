package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"kite/internal/core"
)

// traceMode selects which half of the metric set a run produces.
type traceMode int

const (
	traceOff  traceMode = iota // end-to-end metrics from untraced slices
	traceOn                    // per-layer metrics: untraced + traced slices, ledgers, micro-drivers
	traceBoth                  // the full shape: everything from one run
)

type options struct {
	seed    uint64
	seconds float64 // host time to spend measuring slices
	quick   bool
	mode    traceMode
	workers int // cluster worker cap (nproc unless a test overrides)
	log     io.Writer
	outDir  string // where trace files go
}

// Minimum slice counts: enough for a median with quartiles even when
// -seconds is zero (-quick, tests).
const (
	minUntraced = 3
	minTraced   = 2
)

// sliceStat is one slice: fixed work, measured in both clocks.
type sliceStat struct {
	traced  bool
	wallNS  int64
	mallocs uint64
	ops     uint64
	payload uint64
	delta   snapshot
	p50     float64 // simulated ns
	p99     float64
	beyond  uint64 // samples past the p99 bucket
	simSum  digest // every simulated statistic and count of the slice
}

// leg is one rig under load: the Kite leg is measured in both clocks, the
// Linux leg only supplies simulated figures for sim_kite_linux_ratio.
type leg struct {
	s    *spec
	r    *rig
	t    *tally
	load loader
	tr   *tracer
	n    int // slices run
}

func newLeg(s *spec, o *options, r *rig, tr *tracer) *leg {
	l := &leg{s: s, r: r, tr: tr, t: &tally{lat: newHist()}}
	r.setWorkers(o.workers)
	w := tr.begin(spanWarmup)
	l.load = s.load(s, r, o.seed, l.t, tr)
	l.load.run(s.warm)
	tr.end(w)
	return l
}

// boundaryCheck is made wherever the engine is drained: everything sent
// arrived intact and no pooled buffer is outstanding.
func (l *leg) boundaryCheck(where string) error {
	if err := l.t.check(); err != nil {
		return fmt.Errorf("%s %s: %w", l.s.name, where, err)
	}
	if n := l.r.outstanding(); n != 0 {
		return fmt.Errorf("%s %s: %d pooled buffers outstanding", l.s.name, where, n)
	}
	return nil
}

// slice runs one slice of s.iters iterations. Memory statistics and
// counter snapshots are read outside the timed region.
func (l *leg) slice(traced bool) (sliceStat, error) {
	st := sliceStat{traced: traced}
	t := l.t
	t.lat.reset()
	ops0, pay0 := t.completed, t.payload
	tr := l.tr
	if tr != nil {
		tr.paused = !traced
	}
	label := fmt.Sprintf("%d", l.n)
	var m0, m1 runtime.MemStats
	before := l.r.snap()
	runtime.ReadMemStats(&m0)
	sp := tr.beginL(spanSlice, label)
	start := time.Now()
	l.load.run(l.s.iters)
	st.wallNS = int64(time.Since(start))
	tr.end(sp)
	if tr != nil {
		tr.paused = false
	}
	runtime.ReadMemStats(&m1)
	st.delta = l.r.snap().sub(before)
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.ops, st.payload = t.completed-ops0, t.payload-pay0
	if err := l.boundaryCheck("slice " + label); err != nil {
		return st, err
	}
	if want := uint64(l.s.iters * l.s.opsPerIter()); st.ops != want {
		return st, fmt.Errorf("%s slice %s: %d ops, want %d", l.s.name, label, st.ops, want)
	}
	st.p50, _ = t.lat.quantile(0.50)
	st.p99, st.beyond = t.lat.quantile(0.99)
	st.simSum = fnvOffset
	for i, v := range st.delta {
		st.simSum.str(counterNames[i])
		st.simSum.u64(v)
	}
	st.simSum.u64(st.ops)
	st.simSum.u64(st.payload)
	t.lat.fold(&st.simSum)
	if traced {
		ctr := make(map[string]uint64, nCounters)
		for i, v := range st.delta {
			ctr[counterNames[i]] = v
		}
		l.tr.mark(boundary{Slice: l.n, WallNS: st.wallNS, Counters: ctr})
	}
	l.n++
	return st, nil
}

// slices runs at least min slices and keeps going until budget of host
// time is spent.
func (l *leg) slices(traced bool, min int, budget time.Duration) ([]sliceStat, error) {
	var out []sliceStat
	for start := time.Now(); len(out) < min || time.Since(start) < budget; {
		st, err := l.slice(traced)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// setupStat is the set-up clock: the core constructor, which creates the rig
// and runs every xenbus handshake to Ready(). The warm-up that follows is the
// harness's own and is timed apart.
type setupStat struct {
	secs    []float64 // constructor, per rep, each on a fresh rig
	warmupS float64   // warm-up of the rig that is kept
	events  uint64    // engine events the handshakes took (deterministic)
}

// setupBallast is live, untouched and pointer-free while set-ups repeat. It
// keeps the heap goal far above a small rig's size, so the runtime does not
// hand each dropped rig's pages back to the OS for the next constructor to
// fault in again: that race doubled the figure on net_mq4 and blk_mixed and
// made it the noisiest number of a run.
const setupBallast = 256 << 20

// timeFresh calls fn reps times and returns what the last call built and the
// seconds each call took. What the call before built is dropped and collected
// before the next is timed, so every rep starts from the same heap.
func timeFresh[T any](reps int, tr *tracer, kind spanKind, fn func() (T, error)) (T, []float64, error) {
	var last, zero T
	secs := make([]float64, 0, reps)
	var ballast []byte
	if reps > 1 {
		ballast = make([]byte, setupBallast)
	}
	for i := 0; i < reps; i++ {
		last = zero
		runtime.GC()
		sp := tr.begin(kind)
		start := time.Now()
		var err error
		last, err = fn()
		took := time.Since(start).Seconds()
		tr.end(sp)
		if err != nil {
			return zero, secs, err
		}
		secs = append(secs, took)
	}
	runtime.KeepAlive(ballast)
	return last, secs, nil
}

// prepare builds the workload's rig reps times, then warms the last one.
func prepare(s *spec, o *options, reps int, tr *tracer) (*leg, setupStat, error) {
	r, secs, err := timeFresh(reps, tr, spanSetup, func() (*rig, error) {
		return s.build(s, core.KindKite, o.seed)
	})
	st := setupStat{secs: secs}
	if err != nil {
		return nil, st, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	for _, g := range r.guests {
		if !g.Ready() {
			return nil, st, fmt.Errorf("%s: set-up returned an unready guest", s.name)
		}
	}
	st.events = r.eng.Processed()
	start := time.Now()
	l := newLeg(s, o, r, tr)
	st.warmupS = time.Since(start).Seconds()
	return l, st, l.boundaryCheck("warm-up")
}

// run is everything one workload run measured.
type run struct {
	s     *spec
	setup setupStat
	// Piecewise creates without handshakes, timed as the set-ups were: the
	// split of setup_s.
	createSecs []float64
	untraced   []sliceStat
	traced     []sliceStat // the traced pass, slice for slice a replay of untraced
	workers1   bool        // traced[0] ran with one cluster worker
	linux      *sliceStat
	heapMB     float64
	micro      map[string]quartiles // filled by the caller from runMicros before perLayer
	tracer     *tracer
	attempts   uint64
	failed     uint64
	workersN   int
}

// finish makes the end-of-pass checks and adds the pass's ops to the run.
func (res *run) finish(l *leg) error {
	if v, ok := l.load.(verifier); ok {
		sp := l.tr.begin(spanVerify)
		err := v.verify()
		l.tr.end(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", l.s.name, err)
		}
	}
	if err := l.boundaryCheck("end of pass"); err != nil {
		return err
	}
	total := l.r.snap()
	res.attempts += l.t.attempted
	res.failed += l.t.attempted - l.t.completed + l.t.bad +
		total[cNicTxDrops] + total[cNbRxDrops] + total[cBbErrors]
	return nil
}

// runWorkload executes the run shape. The untraced pass — set-up, warm-up,
// fixed-work slices — gives every host-clock end-to-end metric. The traced
// pass repeats it on a fresh rig of the same seed with spans on, so its
// slice k must be a simulated replay of the untraced slice k to the last
// bit; on cluster rigs its first slice also drops to one worker, which must
// change nothing either.
func runWorkload(s *spec, o *options) (*run, error) {
	res := &run{s: s, workersN: 1}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.quick {
		budget = 0 // the minimum slice counts
	}
	reps := s.setupReps
	if o.mode == traceOn || o.quick {
		reps = 1 // set-up is an end-to-end metric; the traced run only splits it
	}
	if o.mode == traceOn {
		budget /= 2 // the traced pass and the micro-drivers need the rest
	}

	l, setup, err := prepare(s, o, reps, nil)
	if err != nil {
		return nil, err
	}
	res.setup = setup
	if c := l.r.sys.Cluster; c != nil {
		res.workersN = min(c.Shards(), o.workers)
	}
	runtime.GC() // set-up garbage is collected before the first timed slice
	if res.untraced, err = l.slices(false, minUntraced, budget); err != nil {
		return nil, err
	}
	if err := res.finish(l); err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.heapMB = float64(ms.HeapInuse) / (1 << 20)
	runtime.KeepAlive(l)
	if o.mode == traceOff {
		return res, nil
	}

	// The traced pass is minTraced slices, and one more on a single worker
	// on cluster rigs, whatever --seconds is; six spans per iteration at most
	// (net_stream: tx and rx, each with a submit and a drain). The buffer
	// holds them all, so no traced slice pays for its growth.
	tr := newTracer(fmt.Sprintf("%s-%#x", s.name, o.seed), 6*s.iters*(minTraced+1)+4096)
	res.tracer = tr
	l = nil // the traced pass gets the heap to itself
	_, res.createSecs, err = timeFresh(reps, tr, spanCreate, func() (struct{}, error) {
		return struct{}{}, s.create(s, o.seed)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: piecewise create: %w", s.name, err)
	}
	if l, _, err = prepare(s, o, 1, tr); err != nil {
		return nil, err
	}
	runtime.GC()
	if l.r.sys.Cluster != nil {
		l.r.setWorkers(1)
		first, err := l.slice(true)
		l.r.setWorkers(o.workers)
		if err != nil {
			return nil, err
		}
		res.traced, res.workers1 = []sliceStat{first}, true
	}
	more, err := l.slices(true, minTraced, 0)
	if err != nil {
		return nil, err
	}
	res.traced = append(res.traced, more...)
	if tr.grew() {
		return nil, fmt.Errorf("%s: the span buffer grew inside a traced slice (%d spans)", s.name, len(tr.spans))
	}
	if err := res.finish(l); err != nil {
		return nil, err
	}
	for i := 0; i < min(len(res.untraced), len(res.traced)); i++ {
		if u, t := &res.untraced[i], &res.traced[i]; u.simSum != t.simSum {
			return nil, fmt.Errorf("%s: traced slice %d is not a simulated replay of untraced slice %d (digest %016x, want %016x):%s",
				s.name, i, i, uint64(t.simSum), uint64(u.simSum), diffSlices(u, t))
		}
	}

	if s.linuxRatio != "" {
		lr, err := s.build(s, core.KindLinux, o.seed)
		if err != nil {
			return nil, fmt.Errorf("%s: linux leg set-up: %w", s.name, err)
		}
		st, err := newLeg(s, o, lr, nil).slice(false)
		if err != nil {
			return nil, fmt.Errorf("linux leg: %w", err)
		}
		res.linux = &st
	}
	return res, nil
}

// diffSlices names what moved between two slices that should have been
// simulated replays of each other.
func diffSlices(a, b *sliceStat) string {
	out := ""
	for i := range a.delta {
		if a.delta[i] != b.delta[i] {
			out += fmt.Sprintf(" %s %d->%d;", counterNames[i], a.delta[i], b.delta[i])
		}
	}
	if a.p50 != b.p50 || a.p99 != b.p99 {
		out += fmt.Sprintf(" latency p50 %g->%g p99 %g->%g ns;", a.p50, b.p50, a.p99, b.p99)
	}
	if out == "" {
		out = " latency histogram only"
	}
	return out
}

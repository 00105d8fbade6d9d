package experiments

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny shrinks Quick's run sizes so the whole shape table runs in seconds;
// every row below holds at it (kitebench runs Quick or Full).
func tiny() Scale {
	s := Quick()
	s.NuttcpDur /= 3
	s.PingCount = 8
	s.NetperfTxns = 30
	s.MemtierOps = 60
	s.ABRequests = 20
	s.RedisOps = 600
	s.OLTPDur /= 3
	s.DDBytes = 16 << 20
	s.FileIODur /= 3
	s.FileIOBytes = 32 << 20
	s.FilebenchDur /= 3
	s.Reps = 2
	return s
}

// shape is one row of the table below: a claim of the paper's evaluation
// and the check that the simulation reproduces it.
type shape struct {
	id     string // a Registry() ID, or an ablation's A-* ID
	design string // the DESIGN §4 experiment rows this row covers
	claim  string // the paper's claim, in the words of DESIGN §4's experiment index
	// check gets the Registry experiment's result at tiny() scale; an
	// ablation's row gets nil and runs the ablation itself.
	check func(t *testing.T, res *Result)
}

// shapes is what the simulator is validated against: one row per
// experiment of the paper's evaluation (§5) and per design-choice ablation
// (§3). TestShapes fails on an experiment without a row.
var shapes = []shape{
	{id: "FIG1A", design: "E-FIG1A",
		claim: "CVE counts for Linux/Windows drivers by year (2016–2021)",
		check: func(t *testing.T, res *Result) {
			if n := res.Table.NumRows(); n < 5 {
				t.Fatalf("%d years, want at least 5", n)
			}
		}},
	{id: "FIG1B", design: "E-FIG1B, E-FIG5",
		claim: "total ROP gadgets: Kite vs default/CentOS/Fedora/Ubuntu/Debian kernels",
		check: func(t *testing.T, res *Result) {
			if def := pair(t, res, "default/kite"); def.Linux/def.Kite < 3 {
				t.Errorf("default kernel has %.1fx Kite's gadgets, want >= 3x (paper: ~4x)", def.Linux/def.Kite)
			}
			if ubu := pair(t, res, "ubuntu/kite"); ubu.Linux < 1_000_000 {
				t.Errorf("Ubuntu kernel has %.0f gadgets, want millions", ubu.Linux)
			}
		}},
	{id: "FIG4", design: "E-FIG4A, E-FIG4B, E-FIG4C",
		claim: "syscall count: Kite net=14, storage=18 vs Ubuntu=171; image size MB: Kite ~10× smaller; boot ~7 s vs ~75 s",
		check: func(t *testing.T, res *Result) {
			for _, want := range []struct {
				metric string
				factor float64
			}{{"syscalls", 10}, {"image", 9}, {"boot", 10}} {
				if p := pair(t, res, want.metric); p.Linux/p.Kite < want.factor {
					t.Errorf("%s: Linux/Kite = %.1fx, want >= %.0fx", want.metric, p.Linux/p.Kite, want.factor)
				}
			}
		}},
	{id: "FIG4C", design: "E-FIG4C",
		claim: "boot time: Kite ~7 s vs Linux ~75 s (C1: ≥10×)",
		check: func(t *testing.T, res *Result) {
			p := pair(t, res, "boot-to-service")
			if p.Linux/p.Kite < 10 {
				t.Errorf("measured boot speedup %.1fx, want >= 10x", p.Linux/p.Kite)
			}
			if p.Kite < 6.5 || p.Kite > 8 {
				t.Errorf("Kite boots in %.1f s, want 6.5-8 s", p.Kite)
			}
		}},
	{id: "TAB3", design: "E-TAB3",
		claim: "11 CVEs blocked by discarding syscalls",
		check: func(t *testing.T, res *Result) {
			if p := pair(t, res, "mitigated-by-kite"); p.Kite != 11 {
				t.Errorf("Kite mitigates %.0f CVEs, want 11", p.Kite)
			}
			if !strings.Contains(res.Table.String(), "CVE-2021-35039") {
				t.Error("table is missing the CVE-2021-35039 row")
			}
		}},
	{id: "FIG6", design: "E-FIG6",
		claim: "nuttcp UDP, 4 MB window 8 KB buf: ~7 Gbps, <1.5 % loss both",
		check: func(t *testing.T, res *Result) {
			if tp := pair(t, res, "throughput"); !tp.Parity(1.25) {
				t.Errorf("throughput outside 1.25x parity: %+v", *tp)
			}
			if loss := pair(t, res, "loss"); loss.Kite > 20 || loss.Linux > 20 {
				t.Errorf("loss above 20%%: %+v", *loss)
			}
		}},
	{id: "FIG7", design: "E-FIG7",
		claim: "latency: ping, Netperf, memtier — Kite ≤ Linux",
		check: func(t *testing.T, res *Result) {
			if ping := pair(t, res, "ping RTT"); ping.Kite <= 0 || ping.Linux <= 0 {
				t.Errorf("ping RTT not measured: %+v", *ping)
			}
			pairs(t, res, "netperf RR", "memtier")
			for _, p := range res.Pairs {
				if p.Kite > p.Linux*1.05 {
					t.Errorf("%s: Kite %.3f above Linux %.3f by more than 5%%", p.Metric, p.Kite, p.Linux)
				}
			}
		}},
	{id: "FIG8", design: "E-FIG8, E-TAB4",
		claim: "ApacheBench, file sizes 512 B–1 MB; detailed 512 KB row: parity, Kite marginally ahead at 512 KB",
		check: func(t *testing.T, res *Result) {
			small, big := pair(t, res, "tput@512B"), pair(t, res, "tput@512KB")
			if !big.Parity(1.3) {
				t.Errorf("512 KB throughput outside 1.3x parity: %+v", *big)
			}
			if small.Kite >= big.Kite {
				t.Errorf("throughput does not grow with file size: %.1f MB/s at 512 B, %.1f at 512 KB", small.Kite, big.Kite)
			}
		}},
	{id: "FIG9", design: "E-FIG9",
		claim: "redis-benchmark pipeline=1000, threads 5–20, SET/GET: parity",
		check: func(t *testing.T, res *Result) {
			pairs(t, res, "SET@20", "GET@20")
			for _, p := range res.Pairs {
				if !p.Parity(1.35) {
					t.Errorf("%s outside 1.35x parity: %+v", p.Metric, p)
				}
			}
		}},
	{id: "FIG10", design: "E-FIG10, E-TAB4",
		claim: "sysbench OLTP read-only vs MySQL over network, threads 5–60; DomU CPU util: parity",
		check: func(t *testing.T, res *Result) {
			low, high := pair(t, res, "qps@5"), pair(t, res, "qps@60")
			if high.Kite <= low.Kite {
				t.Errorf("throughput does not rise with threads: %.0f q/s at 5, %.0f at 60", low.Kite, high.Kite)
			}
			if !high.Parity(1.3) {
				t.Errorf("qps@60 outside 1.3x parity: %+v", *high)
			}
			if cpuLow, cpuHigh := pair(t, res, "cpu@5"), pair(t, res, "cpu@60"); cpuHigh.Kite <= cpuLow.Kite {
				t.Errorf("CPU utilisation does not rise with threads (Fig 10b): %.1f%% at 5, %.1f%% at 60", cpuLow.Kite, cpuHigh.Kite)
			}
		}},
	{id: "FIG11", design: "E-FIG11",
		claim: "dd 10 GB to/from /dev/zero: read & write ≈ parity",
		check: func(t *testing.T, res *Result) {
			for _, metric := range []string{"write", "read"} {
				p := pair(t, res, metric)
				if !p.Parity(1.3) {
					t.Errorf("%s outside 1.3x parity: %+v", metric, *p)
				}
				if p.Kite < 200 {
					t.Errorf("%s = %.0f MB/s, want >= 200", metric, p.Kite)
				}
			}
		}},
	{id: "FIG12", design: "E-FIG12",
		claim: "sysbench fileio rw 3:2; threads 1–100 @256 KB; block 16 KB–128 MB @20 thr: parity, Kite slightly ahead",
		check: func(t *testing.T, res *Result) {
			one, many := pair(t, res, "thr@1"), pair(t, res, "thr@100")
			if many.Kite <= one.Kite {
				t.Errorf("throughput does not rise with threads (Fig 12a): %.1f MB/s at 1, %.1f at 100", one.Kite, many.Kite)
			}
			if !many.Parity(1.35) {
				t.Errorf("thr@100 outside 1.35x parity: %+v", *many)
			}
			if small, big := pair(t, res, "bs@16KB"), pair(t, res, "bs@8MB"); big.Kite <= small.Kite {
				t.Errorf("throughput does not rise with block size (Fig 12b): %.1f MB/s at 16 KB, %.1f at 8 MB", small.Kite, big.Kite)
			}
		}},
	{id: "FIG13", design: "E-FIG13",
		claim: "sysbench MySQL storage, threads 1–100: identical curves",
		check: func(t *testing.T, res *Result) {
			pairs(t, res, "qps@100")
			for _, p := range res.Pairs {
				if !p.Parity(1.35) {
					t.Errorf("%s outside 1.35x parity: %+v", p.Metric, p)
				}
			}
		}},
	{id: "FIG14", design: "E-FIG14",
		claim: "filebench fileserver, I/O 16 KB–8 MB: throughput rises with I/O size, parity or Kite ahead",
		check: func(t *testing.T, res *Result) {
			small, big := pair(t, res, "io@16KB"), pair(t, res, "io@8MB")
			if big.Kite <= small.Kite {
				t.Errorf("throughput does not rise with I/O size: %.1f MB/s at 16 KB, %.1f at 8 MB", small.Kite, big.Kite)
			}
			if !big.Parity(1.4) {
				t.Errorf("io@8MB outside 1.4x parity: %+v", *big)
			}
		}},
	{id: "FIG15", design: "E-FIG15",
		claim: "filebench MongoDB profile, 4 MB mean I/O, 1 user: Kite at or ahead",
		check: func(t *testing.T, res *Result) {
			pairs(t, res, "latency")
			if tp := pair(t, res, "throughput"); tp.Kite < tp.Linux*0.9 {
				t.Errorf("Kite throughput more than 10%% below Linux: %+v", *tp)
			}
		}},
	{id: "FIG16", design: "E-FIG16",
		claim: "filebench webserver, 1 MB I/O: Kite slightly ahead",
		check: func(t *testing.T, res *Result) {
			pairs(t, res, "cpu")
			if tp := pair(t, res, "throughput"); tp.Kite < tp.Linux*0.9 {
				t.Errorf("Kite throughput more than 10%% below Linux: %+v", *tp)
			}
		}},
	{id: "DHCP", design: "E-DHCP",
		claim: "perfdhcp vs unikernel OpenDHCP: Discover-Offer ≈0.78 ms, Request-Ack ≈0.7 ms",
		check: func(t *testing.T, res *Result) {
			for _, metric := range []string{"discover-offer", "request-ack"} {
				if p := pair(t, res, metric); p.Kite <= 0 || p.Kite > 5 {
					t.Errorf("%s = %.3f ms behind Kite, want in (0, 5]", metric, p.Kite)
				}
			}
		}},
	{id: "A-PG", design: "A-PG",
		claim: "persistent grants on/off",
		check: func(t *testing.T, _ *Result) {
			a := AblationPersistentGrants(tiny())
			if a.AuxOn*4 > a.AuxOff {
				t.Errorf("persistent grants saved too few maps: on=%d off=%d", a.AuxOn, a.AuxOff)
			}
			if a.On < a.Off*0.95 {
				t.Errorf("persistent grants hurt throughput: on=%.0f off=%.0f MB/s", a.On, a.Off)
			}
		}},
	{id: "A-IND", design: "A-IND",
		claim: "indirect segments on/off",
		check: func(t *testing.T, _ *Result) {
			if a := AblationIndirectSegments(tiny()); a.AuxOn >= a.AuxOff {
				t.Errorf("indirect segments did not reduce ring requests: on=%d off=%d", a.AuxOn, a.AuxOff)
			}
		}},
	{id: "A-BATCH", design: "A-BATCH",
		claim: "consecutive-segment batching on/off",
		check: func(t *testing.T, _ *Result) {
			if a := AblationBatching(tiny()); a.AuxOn >= a.AuxOff {
				t.Errorf("batching did not reduce device ops: on=%d off=%d", a.AuxOn, a.AuxOff)
			}
		}},
	{id: "A-THR", design: "A-THR",
		claim: "dedicated pusher/soft_start threads vs in-handler processing",
		check: func(t *testing.T, _ *Result) {
			a := AblationThreadedModel(tiny())
			t.Logf("ping under load: %.3f ms threaded, %.3f ms in-handler", a.On, a.Off)
			if a.On <= 0 || a.Off <= 0 {
				t.Errorf("ping under load not measured: threaded %.3f ms, in-handler %.3f ms", a.On, a.Off)
			}
		}},
}

// pair returns res's pair for metric, failing the row by name if the
// experiment did not report it.
func pair(t *testing.T, res *Result, metric string) *Pair {
	t.Helper()
	p := res.Pair(metric)
	if p == nil {
		t.Fatalf("%s reports no %q pair", res.ID, metric)
	}
	return p
}

// pairs fails the row if res lacks any of the named pairs.
func pairs(t *testing.T, res *Result, names ...string) {
	t.Helper()
	for _, m := range names {
		pair(t, res, m)
	}
}

// TestShapes runs every row of the shape table at tiny() scale, and fails
// if an experiment of the registry has no row or a row names neither an
// experiment nor an ablation. It also pins each experiment's rendered
// table to testdata/<ID>.txt, so a change that moves a figure's values
// shows them in its diff: delete the files and run the test to rewrite
// them.
func TestShapes(t *testing.T) {
	specs := map[string]Spec{}
	for _, sp := range Registry() {
		specs[sp.ID] = sp
	}
	rows := map[string]bool{}
	for _, row := range shapes {
		rows[row.id] = true
		if _, ok := specs[row.id]; !ok && !strings.HasPrefix(row.id, "A-") {
			t.Errorf("row %s is neither an experiment of the registry nor an A-* ablation", row.id)
		}
	}
	for _, sp := range Registry() {
		if !rows[sp.ID] {
			t.Errorf("experiment %s has no row in the shape table", sp.ID)
		}
	}
	if t.Failed() {
		return
	}
	for _, row := range shapes {
		t.Run(row.id, func(t *testing.T) {
			t.Parallel()
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("paper (DESIGN §4 %s): %s", row.design, row.claim)
				}
			})
			var res *Result
			if sp, ok := specs[row.id]; ok {
				res = sp.Run(tiny())
			}
			row.check(t, res)
			if res != nil {
				pinned(t, filepath.Join("testdata", row.id+".txt"), render(res))
			}
		})
	}
}

// pinned fails unless got equals the file at path. A missing file is
// written from got, and the test fails once so that the new file is seen.
func pinned(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("wrote %s; run again", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("table differs from %s (delete it and re-run to accept)\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

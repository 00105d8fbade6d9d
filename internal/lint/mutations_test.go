package lint_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kite/internal/lint"
)

// This file is the audit kitelint answers to (DESIGN §14). Each row seeds
// one fault in the real tree by textual replacement and says which analyzer
// must fire on it and which tests fail on it. TestMutationsCaught checks
// the first half on every `go test`; audit_test.go (build tag `audit`,
// `make audit`) checks the second half by running the module's tests on
// each row alone. An analyzer, or a rule inside one, stays only while some
// row changes an observable, fires it, and fails no test.

// edit is one textual replacement; old occurs exactly once in file.
type edit struct{ file, old, new string }

type mutation struct {
	id string
	edit
	also []edit // what the fault needs to compile: an import, a declaration

	// fires lists "analyzer: message fragment" for every finding expected
	// on the lines the fault inserted; nil means kitelint is silent.
	fires []string
	// caught names tests that fail with this row alone applied; nil means
	// the whole suite passes. race asks the audit to pass -race too;
	// raceCaught names tests that fail only there.
	caught     []string
	race       bool
	raceCaught []string
}

const (
	netbackGo = "internal/netback/netback.go"
	laneGo    = "internal/pvback/lane.go"
	wheelGo   = "internal/timewheel/timewheel.go"
	onEvent   = "func (q *vifQueue) onEvent() {\n\tif q.dead {\n\t\treturn\n\t}\n"
	rxHandoff = "\t\tv.eng.Post(q.eng, shardHandoff, sim.PriData, q.rxEnqueueF, frame)\n"
)

var mutations = []mutation{
	// hotpath: an allocation on a zero-alloc path. The runtime alloc tests
	// see the steady-state branches only.
	{id: "H1-rx-main", edit: edit{netbackGo,
		"\tq.rxQueue.Push(frame)\n\tif q.lane != nil {",
		"\tmainProbe := make([]byte, frame.Len())\n\tq.stats.RxQueueDrops += uint64(mainProbe[0])\n\tq.rxQueue.Push(frame)\n\tif q.lane != nil {"},
		fires:  []string{"hotpath: allocation (make) in rxEnqueue"},
		caught: []string{"TestForwardPathZeroAlloc"}},
	{id: "H2-rx-drop-branch", edit: edit{netbackGo,
		"\tif q.rxQueue.Len() >= RxQueueFrames {\n",
		"\tif q.rxQueue.Len() >= RxQueueFrames {\n\t\tdropProbe := make([]byte, frame.Len())\n\t\tq.stats.RxQueueDrops += uint64(dropProbe[0])\n"},
		fires: []string{"hotpath: allocation (make) in rxEnqueue"}},
	{id: "H3-blk-serve", edit: edit{"internal/blkback/blkback.go",
		"\t\t\tused++\n\t\t\tq.stats.RingRequests++",
		"\t\t\tserveProbe := make([]byte, used+1)\n\t\t\tused += 1 + int(serveProbe[0])\n\t\t\tq.stats.RingRequests++"},
		fires:  []string{"hotpath: allocation (make) in Serve"},
		caught: []string{"TestBlockPathZeroAlloc"}},
	{id: "H4-flowtab-insert", edit: edit{"internal/flowtab/flowtab.go",
		"\te := &t.slab[pos]\n",
		"\tinsProbe := make([]int32, pos+1)\n\te := &t.slab[pos+insProbe[0]]\n"},
		fires: []string{"hotpath: allocation (make) in Insert"}},

	// poolref: a Get bound to a local that one path forgets.
	{id: "P1-arp-early-return", edit: edit{"internal/netstack/stack.go",
		"\ta := netpkt.ARP{Op: netpkt.ARPRequest, SenderMAC: s.ifc.MAC(), SenderIP: s.ip, TargetIP: target}\n\tb := s.pool.GetLen(netpkt.ARPLen)\n",
		"\tb := s.pool.GetLen(netpkt.ARPLen)\n\tif target == s.ip {\n\t\treturn\n\t}\n\ta := netpkt.ARP{Op: netpkt.ARPRequest, SenderMAC: s.ifc.MAC(), SenderIP: s.ip, TargetIP: target}\n"},
		fires: []string{"poolref: buffer acquired here is not released"}},
	// A frame received as a parameter is outside what poolref tracks; the
	// leak tests hold these three branches.
	{id: "P2-leak-rx-full", edit: edit{netbackGo,
		"\t\tq.stats.RxQueueDrops++\n\t\tframe.Release()\n",
		"\t\tq.stats.RxQueueDrops++\n"},
		caught: []string{"TestRxDropBranchesReleaseFrames/queue_full"}},
	{id: "P3-leak-dead-down", edit: edit{netbackGo,
		"\tv := q.v\n\tif v.dead || v.down {\n\t\tframe.Release()\n",
		"\tv := q.v\n\tif v.dead || v.down {\n"},
		caught: []string{"TestRxDropBranchesReleaseFrames/down_before_the_hand-off_lands", "TestRxDropBranchesReleaseFrames/dead_before_the_hand-off_lands"}},
	{id: "P5-leak-tx-error", edit: edit{netbackGo,
		"\t\t\t\tif ops[op].Status != xen.CopyOkay {\n\t\t\t\t\tb.Release()\n",
		"\t\t\t\tif ops[op].Status != xen.CopyOkay {\n"},
		caught: []string{"TestNetbackSurvivesHostileTxRequests"}},

	// simdet, one row per clause. D1-D4 sit in code no determinism test runs
	// twice (the suite diffs FIG4/6/7/11 and the fleet; these are FIG8/10/14).
	// The map-range clause has no such row on this tree: DESIGN §14.3's audit table.
	{id: "D1-wall-clock", edit: edit{"internal/workload/sysbench.go",
		"\trng := sim.NewRand(uint64(threads)*7919 + 17)\n",
		"\trng := sim.NewRand(uint64(time.Now().UnixNano()))\n"},
		also:  []edit{{"internal/workload/sysbench.go", "import (\n", "import (\n\t\"time\"\n"}},
		fires: []string{"simdet: time.Now reads the wall clock"}},
	{id: "D2-global-rand", edit: edit{"internal/workload/filebench.go",
		"\t\t\trng := sim.NewRand(cfg.Seed ^ 0xf11e ^ uint64(idx)*0x9e37)\n",
		"\t\t\trng := sim.NewRand(rand.Uint64() ^ uint64(idx)*0x9e37)\n"},
		also:  []edit{{"internal/workload/filebench.go", "import (\n", "import (\n\t\"math/rand\"\n"}},
		fires: []string{"simdet: global math/rand.Uint64"}},
	{id: "D3-goroutine-sweep", edit: edit{"internal/experiments/storage.go",
		"\tfor _, io := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 8 << 20} {\n\t\tio := io\n\t\tl, k := bothKinds(s, func(kind core.DriverKind) workload.FilebenchResult { return run(kind, io) })\n",
		"\tvar wg sync.WaitGroup\n\tvar mu sync.Mutex\n\tfor _, io := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20, 8 << 20} {\n\t\tio := io\n\t\twg.Add(1)\n\t\tgo func() {\n\t\tdefer wg.Done()\n\t\tl, k := bothKinds(s, func(kind core.DriverKind) workload.FilebenchResult { return run(kind, io) })\n\t\tmu.Lock()\n\t\tdefer mu.Unlock()\n"},
		also: []edit{
			{"internal/experiments/storage.go", "\t\t\tmetrics.FormatFloat(metrics.Ratio(k.MBps, l.MBps)))\n\t}\n\tres.Notes = append(res.Notes, \"paper: 200-700",
				"\t\t\tmetrics.FormatFloat(metrics.Ratio(k.MBps, l.MBps)))\n\t\t}()\n\t}\n\twg.Wait()\n\tres.Notes = append(res.Notes, \"paper: 200-700"},
			{"internal/experiments/storage.go", "import (\n", "import (\n\t\"sync\"\n"}},
		fires: []string{"simdet: sync.WaitGroup", "simdet: sync.Mutex", "simdet: go statement"},
		race:  true},
	{id: "D4-package-scratch", edit: edit{"internal/apps/httpd.go",
		"\tresp := make([]byte, 0, len(header)+len(body))\n\tresp = append(resp, header...)\n\tresp = append(resp, body...)\n\tc.Send(resp)\n",
		"\trespScratch = append(respScratch[:0], header...)\n\trespScratch = append(respScratch, body...)\n\tc.Send(respScratch)\n"},
		also:  []edit{{"internal/apps/httpd.go", "func (s *HTTPServer) handle(", "var respScratch []byte\n\nfunc (s *HTTPServer) handle("}},
		fires: []string{"simdet: assignment to package-level apps.respScratch"},
		race:  true},
	{id: "D5-map-range", edit: edit{"internal/pvback/driver.go",
		"\tout := make([]I, len(d.order))\n\tfor i, a := range d.order {\n\t\tout[i] = a.inst\n",
		"\tout := make([]I, 0, len(d.byPath))\n\tfor _, a := range d.byPath {\n\t\tout = append(out, a.inst)\n"},
		fires:  []string{"simdet: map iteration order is nondeterministic"},
		caught: []string{"TestFleetSummaryDeterministicAcrossCores"}},
	{id: "S1-txn-unsorted", edit: edit{"internal/xenstore/txn.go",
		"\tsort.Strings(readPaths)\n",
		"\t_ = sort.Strings\n"},
		caught: []string{"TestTxnConflictNamesAFixedPath"}},

	// What the deleted analyzers checked, and the tests that hold it now.
	// ringlink:
	{id: "RL1-activate-unguarded", edit: edit{laneGo,
		"\tif l.members[s].next < 0 {\n\t\tl.link(s)\n\t}\n\tl.worker.Wake()",
		"\tl.link(s)\n\tl.worker.Wake()"},
		caught: []string{"TestLaneAgainstModel"}},
	{id: "RL2-wheel-gone-no-release", edit: edit{wheelGo,
		"\t\t\tcase seen == Gone:\n\t\t\t\tw.release(h)\n",
		"\t\t\tcase seen == Gone:\n"},
		caught: []string{"TestWheelMatchesSweep"}},
	{id: "RL3-add-no-link", edit: edit{wheelGo,
		"\tw.key[h] = key\n\tw.link(h, seen)\n",
		"\tw.key[h] = key\n"},
		caught: []string{"TestWheelMatchesSweep"}},
	{id: "RL4-double-unlink", edit: edit{laneGo,
		"\t\t\tl.unlink(s)\n\t\t\tm.deficit = 0",
		"\t\t\tl.unlink(s)\n\t\t\tl.unlink(s)\n\t\t\tm.deficit = 0"},
		caught: []string{"TestLaneAgainstModel"}},
	// evblock:
	{id: "E1-step-in-handler", edit: edit{netbackGo, onEvent, onEvent + "\tq.eng.Step()\n"},
		caught: []string{"TestFleetFootprint"}},
	{id: "E2-sleep-in-handler", edit: edit{netbackGo, onEvent, onEvent + "\ttime.Sleep(0)\n"},
		also:  []edit{{netbackGo, "import (\n", "import (\n\t\"time\"\n"}},
		fires: []string{"simdet: time.Sleep reads the wall clock", "hotpath: call to time.Sleep"}},
	{id: "E3-goroutine-in-handler", edit: edit{netbackGo, onEvent,
		onEvent + "\tevDone := make(chan struct{})\n\tgo func() { close(evDone) }()\n\t<-evDone\n"},
		fires: []string{"simdet: channel type", "simdet: go statement", "simdet: channel receive",
			"hotpath: allocation (make) in onEvent", "hotpath: closure allocation in onEvent"},
		caught: []string{"TestForwardPathZeroAlloc"}},
	// xskeys:
	{id: "X1-key-typo-read", edit: edit{"internal/pvfront/pvfront.go",
		"\td.Bus.Store().Write(dir+\"/\"+xenstore.KeyEventChannel, strconv.FormatUint(uint64(d.ports[i]), 10))",
		"\td.Bus.Store().Write(dir+\"/\"+\"event-chanel\", strconv.FormatUint(uint64(d.ports[i]), 10))"},
		caught: []string{"TestNetworkRigBothKinds", "TestFacadeQuickstartFlow"}},
	{id: "X2-key-typo-unread", edit: edit{"internal/blkfront/blkfront.go",
		"\th.Bus.WriteFeature(frontPath, xenstore.KeyFeaturePersistent, h.persistent)",
		"\th.Bus.WriteFeature(frontPath, \"feature-persistant\", h.persistent)"}},
	// shardsafe:
	{id: "SS1-global-counter", edit: edit{netbackGo,
		"func (q *vifQueue) rxEnqueue(frame *framepool.Buf) {\n\tv := q.v\n",
		"func (q *vifQueue) rxEnqueue(frame *framepool.Buf) {\n\trxSeen++\n\tv := q.v\n"},
		also:       []edit{{netbackGo, "\n// rxEnqueue queues one", "\nvar rxSeen uint64\n\n// rxEnqueue queues one"}},
		fires:      []string{"simdet: assignment to package-level netback.rxSeen"},
		raceCaught: []string{"TestRunAllParallelMatchesSequential"}},
	{id: "SS2-foreign-schedule", edit: edit{netbackGo, rxHandoff,
		"\t\tq.eng.After(shardHandoff, func() { q.rxEnqueue(frame) }) //kite:alloc-ok audit\n"},
		caught: []string{"TestForwardPathZeroAllocMQ"}},
	// atomicscope:
	{id: "A1-atomic-in-run-loop", edit: edit{"internal/sim/cluster.go",
		"\t\tc.windows++\n\t\tposted := c.posted\n\t\ts := &c.shards[run]\n",
		"\t\tatomic.AddUint64(&c.windows, 1)\n\t\tposted := c.posted\n\t\ts := &c.shards[run]\n"},
		also:  []edit{{"internal/sim/cluster.go", "import \"fmt\"\n", "import (\n\t\"fmt\"\n\t\"sync/atomic\"\n)\n"}},
		fires: []string{"simdet: sync/atomic.AddUint64"}},
}

// moduleRoot is where this package's tests run from, two levels up.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err == nil {
		_, err = os.Stat(filepath.Join(root, "go.mod"))
	}
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	return root
}

// copyModule copies the module at root to dst, leaving hidden directories:
// go.mod and the non-test Go sources, or, withTests, every file.
func copyModule(t *testing.T, root, dst string, withTests bool) {
	t.Helper()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		name := d.Name()
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" && !withTests) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		source := name == "go.mod" || strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
		if !source && !withTests {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copy module: %v", err)
	}
}

// apply makes one edit under root.
func (e edit) apply(root string) error {
	path := filepath.Join(root, e.file)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if n := strings.Count(string(data), e.old); n != 1 {
		return fmt.Errorf("%s: old text occurs %d times, want 1:\n%s", e.file, n, e.old)
	}
	return os.WriteFile(path, []byte(strings.Replace(string(data), e.old, e.new, 1)), 0o644)
}

// apply seeds the row's fault under root.
func (m mutation) apply(root string) error {
	for _, e := range append([]edit{m.edit}, m.also...) {
		if err := e.apply(root); err != nil {
			return fmt.Errorf("%s: %w", m.id, err)
		}
	}
	return nil
}

// inserted returns what the edit adds: new less the prefix and suffix it
// shares with old. Empty for a pure deletion.
func (e edit) inserted() string {
	o, n := e.old, e.new
	i := 0
	for i < len(o) && i < len(n) && o[i] == n[i] {
		i++
	}
	o, n = o[i:], n[i:]
	j := 0
	for j < len(o) && j < len(n) && o[len(o)-1-j] == n[len(n)-1-j] {
		j++
	}
	return n[:len(n)-j]
}

// TestMutationsCaught seeds every row's fault in one copy of the module,
// runs the suite once and asserts that each finding sits on the lines some
// row inserted and is one that row expects, and that every expectation is
// met. So an analyzer that stops seeing the fault it is kept for fails
// here, and so does one that starts firing anywhere else.
func TestMutationsCaught(t *testing.T) {
	root, tmp := moduleRoot(t), t.TempDir()
	copyModule(t, root, tmp, false)
	for _, m := range mutations {
		if err := m.apply(tmp); err != nil {
			t.Fatal(err)
		}
	}

	// Where the inserted text of each row that expects findings ended up,
	// once every row is in.
	type site struct {
		file        string
		first, last int // lines
		row         *mutation
		met         map[string]bool
	}
	var sites []*site
	for i := range mutations {
		m := &mutations[i]
		if len(m.fires) == 0 {
			continue // any finding it causes is on no row's lines
		}
		ins := m.inserted()
		if ins == "" {
			t.Fatalf("%s: expects findings but inserts nothing", m.id)
		}
		data, err := os.ReadFile(filepath.Join(tmp, m.file))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(data), ins); n != 1 {
			t.Fatalf("%s: inserted text occurs %d times in the mutated %s; make it distinctive", m.id, n, m.file)
		}
		at := strings.Index(string(data), ins)
		first := 1 + strings.Count(string(data[:at]), "\n")
		last := first + strings.Count(strings.TrimSuffix(ins, "\n"), "\n")
		sites = append(sites, &site{filepath.Join(tmp, m.file), first, last, m, map[string]bool{}})
	}

	mod, err := lint.LoadModule(tmp)
	if err != nil {
		t.Fatalf("load mutated module: %v", err)
	}
	diags, _, err := lint.RunTimed(mod, lint.All())
	if err != nil {
		t.Fatal(err)
	}
diag:
	for _, d := range diags {
		pos := mod.Fset.Position(d.Pos)
		got := d.Analyzer + ": " + strings.TrimPrefix(d.Message, d.Analyzer+": ")
		for _, s := range sites {
			if pos.Filename != s.file || pos.Line < s.first || pos.Line > s.last {
				continue
			}
			for _, want := range s.row.fires {
				if strings.HasPrefix(got, want) {
					s.met[want] = true
					continue diag
				}
			}
			t.Errorf("%s: unexpected finding on its lines: %s", s.row.id, lint.Format(mod, d))
			continue diag
		}
		t.Errorf("finding on no row's lines: %s", lint.Format(mod, d))
	}
	// Every analyzer, and every clause of simdet, keeps a row whose findings
	// are its alone.
	alone := map[string]bool{} // analyzer names and row ids
	for _, s := range sites {
		for _, want := range s.row.fires {
			if !s.met[want] {
				t.Errorf("%s: kitelint no longer reports %q", s.row.id, want)
			}
		}
		if a := soleAnalyzer(s.row.fires); a != "" {
			alone[a], alone[s.row.id] = true, true
		}
	}
	for _, a := range lint.All() {
		if !alone[a.Name] {
			t.Errorf("%s: no row fires it alone", a.Name)
		}
	}
	for _, id := range []string{"D1-wall-clock", "D2-global-rand", "D3-goroutine-sweep", "D4-package-scratch", "D5-map-range"} {
		if !alone[id] {
			t.Errorf("%s: simdet's clause has no row that fires simdet alone", id)
		}
	}
}

// soleAnalyzer returns the analyzer every entry of a fires list names, or
// "" when they name several.
func soleAnalyzer(fires []string) string {
	first, _, _ := strings.Cut(fires[0], ":")
	for _, f := range fires[1:] {
		if name, _, _ := strings.Cut(f, ":"); name != first {
			return ""
		}
	}
	return first
}

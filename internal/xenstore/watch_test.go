package xenstore

import (
	"fmt"
	"strings"
	"testing"

	"kite/internal/sim"
)

// The watch-dispatch harness runs one byte-coded program against a Store and
// against a brute-force model — a registration-ordered watch list matched
// with pathWithin both ways, and a flat set of existing paths — and checks
// that the same watches fire, in the same order, at the same simulated
// time, with the same (path, token). The seeded churn test, the scenario
// table and FuzzWatchDispatch all go through it.

// Program ops: two bytes each, (op, arg).
const (
	opWatch   = iota // watch path(arg)
	opUnwatch        // unwatch the (arg mod live)-th live watch
	opWrite          // write path(arg)
	opMkdir          // mkdir path(arg)
	opRemove         // remove path(arg)
	opTxn            // one transaction of 1..3 buffered writes/removes derived from arg
	opStep           // deliver one pending fire
	opAdvance        // run the engine for arg microseconds (fires stay in flight below OpLatency)
	numOps
)

// pathOf decodes a path over the alphabet {a,b,c}, depth 0..3 — depth 0 is
// "/" — spelled sloppily (no leading slash, doubled and trailing slashes)
// when bit 7 is set, so normalisation is exercised too.
func pathOf(arg byte) string {
	depth := int(arg & 3)
	segs := make([]string, depth)
	v := int(arg>>2) & 31
	for i := range segs {
		segs[i] = string(rune('a' + v%3))
		v /= 3
	}
	if arg&0x80 != 0 && depth > 0 {
		return strings.Join(segs, "//") + "/"
	}
	return "/" + strings.Join(segs, "/")
}

// modelWithin is the flat list's matching rule, kept here verbatim as the
// reference the trie is checked against.
func modelWithin(p, prefix string) bool {
	return p == prefix || prefix == "/" || strings.HasPrefix(p, prefix+"/")
}

type modelWatch struct {
	path, token string
	dead        bool
	real        *Watch
}

type modelFire struct {
	w    *modelWatch
	path string
	at   sim.Time
}

type watchHarness struct {
	t       *testing.T
	eng     *sim.Engine
	st      *Store
	watches []*modelWatch   // every watch ever registered, registration order
	exists  map[string]bool // model data tree: normalized paths that exist
	want    []modelFire     // fires issued and not yet delivered, issue order
	fired   int
}

func newWatchHarness(t *testing.T) *watchHarness {
	eng := sim.NewEngine()
	return &watchHarness{t: t, eng: eng, st: New(eng), exists: map[string]bool{"/": true}}
}

// canon is the model's own normaliser (strings.Split, like the old store).
func canon(path string) string {
	var segs []string
	for _, s := range strings.Split(path, "/") {
		if s != "" {
			segs = append(segs, s)
		}
	}
	return "/" + strings.Join(segs, "/")
}

func (h *watchHarness) expect(w *modelWatch, path string) {
	h.want = append(h.want, modelFire{w: w, path: path, at: h.eng.Now() + h.st.OpLatency})
}

// mutated is the flat-list dispatch: every live watch at, above or below the
// changed path, in registration order.
func (h *watchHarness) mutated(changed string) {
	for _, w := range h.watches {
		if !w.dead && (modelWithin(changed, w.path) || modelWithin(w.path, changed)) {
			h.expect(w, changed)
		}
	}
}

func (h *watchHarness) create(path string) {
	for p := path; ; p = p[:strings.LastIndexByte(p, '/')] {
		if p == "" {
			break
		}
		h.exists[p] = true
	}
	h.mutated(path)
}

// remove reports whether the model removed anything (root and missing paths
// are refused and fire nothing).
func (h *watchHarness) remove(path string) bool {
	if path == "/" || !h.exists[path] {
		return false
	}
	for p := range h.exists {
		if modelWithin(p, path) {
			delete(h.exists, p)
		}
	}
	h.mutated(path)
	return true
}

func (h *watchHarness) watch(path string) {
	mw := &modelWatch{path: canon(path), token: fmt.Sprintf("t%d", len(h.watches))}
	h.watches = append(h.watches, mw)
	h.expect(mw, mw.path) // the registration fire
	mw.real = h.st.Watch(path, mw.token, func(p, token string) { h.delivered(mw, p, token) })
}

// delivered checks one real callback against the head of the model's queue,
// first dropping fires whose watch was cancelled while they were in flight.
func (h *watchHarness) delivered(mw *modelWatch, path, token string) {
	h.t.Helper()
	for len(h.want) > 0 && h.want[0].w.dead {
		h.want = h.want[1:]
	}
	if len(h.want) == 0 {
		h.t.Fatalf("fire %d: watch %s on %s fired for %s; model expects nothing", h.fired, mw.token, mw.path, path)
	}
	f := h.want[0]
	h.want = h.want[1:]
	if f.w != mw || f.path != path || f.w.token != token || f.at != h.eng.Now() {
		h.t.Fatalf("fire %d: got watch %s (registered on %s) path %s token %s at %v; model wants watch %s path %s at %v",
			h.fired, mw.token, mw.path, path, token, h.eng.Now(), f.w.token, f.path, f.at)
	}
	if mw.dead {
		h.t.Fatalf("fire %d: cancelled watch %s fired", h.fired, mw.token)
	}
	h.fired++
}

func (h *watchHarness) live() []*modelWatch {
	var out []*modelWatch
	for _, w := range h.watches {
		if !w.dead {
			out = append(out, w)
		}
	}
	return out
}

// run executes a program, then drains the engine and checks that the model
// expects nothing more, the data trees agree, and the index holds exactly
// the live watches.
func (h *watchHarness) run(prog []byte) {
	h.t.Helper()
	for i := 0; i+1 < len(prog); i += 2 {
		op, arg := prog[i]%numOps, prog[i+1]
		switch op {
		case opWatch:
			h.watch(pathOf(arg))
		case opUnwatch:
			if live := h.live(); len(live) > 0 {
				w := live[int(arg)%len(live)]
				w.dead = true
				h.st.Unwatch(w.real)
			}
		case opWrite:
			h.st.Write(pathOf(arg), "v")
			h.create(canon(pathOf(arg)))
		case opMkdir:
			h.st.Mkdir(pathOf(arg))
			h.create(canon(pathOf(arg)))
		case opRemove:
			err := h.st.Remove(pathOf(arg))
			if removed := h.remove(canon(pathOf(arg))); removed != (err == nil) {
				h.t.Fatalf("op %d: Remove(%s) err=%v, model removed=%v", i/2, pathOf(arg), err, removed)
			}
		case opTxn:
			tx := h.st.Begin()
			for k, n := 0, 1+int(arg)%3; k < n; k++ {
				p := pathOf(arg*7 + byte(k)*29)
				if (int(arg)>>uint(k))&1 == 0 {
					tx.Write(p, "t")
				} else {
					tx.Remove(p)
				}
			}
			// Replay the buffered ops on the model in commit order: last
			// op per path wins, applied at the path's first appearance.
			for _, p := range tx.order {
				if tx.writes[p] == nil {
					h.remove(p)
				} else {
					h.create(p)
				}
			}
			if err := tx.Commit(); err != nil {
				h.t.Fatalf("op %d: uncontended transaction failed: %v", i/2, err)
			}
		case opStep:
			h.eng.Step()
		case opAdvance:
			h.eng.RunFor(sim.Time(arg) * sim.Microsecond)
		}
	}
	h.eng.Run()
	for len(h.want) > 0 && h.want[0].w.dead {
		h.want = h.want[1:]
	}
	if len(h.want) != 0 {
		f := h.want[0]
		h.t.Fatalf("%d expected fires never happened; first: watch %s path %s", len(h.want), f.w.token, f.path)
	}
	for arg := 0; arg < 128; arg++ {
		p := pathOf(byte(arg))
		if h.st.Exists(p) != h.exists[p] {
			h.t.Fatalf("Exists(%s) = %v, model %v", p, h.st.Exists(p), h.exists[p])
		}
	}
	for _, w := range h.watches {
		if w.real.pending != 0 {
			h.t.Fatalf("watch %s still has %d fires pending after drain", w.token, w.real.pending)
		}
	}
	if got, want := countWatches(&h.st.watchRoot, h.t), len(h.live()); got != want {
		h.t.Fatalf("index holds %d watches, %d live", got, want)
	}
}

// countWatches walks the whole index, checking that no empty leaf survived
// pruning, that children are held in strict name order and that every
// watch sits on the node it names.
func countWatches(n *watchNode, t *testing.T) int {
	total := len(n.watches)
	for _, w := range n.watches {
		if w.at != n || w.dead {
			t.Fatalf("watch on %s filed under node %q (dead=%v)", w.path, n.name, w.dead)
		}
	}
	for i, c := range n.children {
		if c.parent != n {
			t.Fatalf("index node %q mis-linked", c.name)
		}
		if i > 0 && n.children[i-1].name >= c.name {
			t.Fatalf("index children %q, %q out of name order", n.children[i-1].name, c.name)
		}
		if len(c.watches) == 0 && len(c.children) == 0 {
			t.Fatalf("empty index node %q not pruned", c.name)
		}
		total += countWatches(c, t)
	}
	return total
}

// prog builds a program from (op, arg) pairs; pth encodes a clean path.
func prog(pairs ...byte) []byte { return pairs }

func pth(segs string) byte { // "" is "/", "ab" is "/a/b"
	v, mul := 0, 1
	for _, c := range segs {
		v += int(c-'a') * mul
		mul *= 3
	}
	return byte(len(segs) | v<<2)
}

// watchScenarios are the hand-written cases the issue names; they also seed
// the fuzzer.
var watchScenarios = map[string][]byte{
	"registration-fire":       prog(opWatch, pth("ab")),
	"watch-before-node":       prog(opWatch, pth("abc"), opAdvance, 50, opWrite, pth("abc"), opWrite, pth("ab")),
	"remove-dir-with-watches": prog(opWrite, pth("abc"), opWrite, pth("abb"), opWatch, pth("abc"), opWatch, pth("abb"), opWatch, pth("ab"), opWatch, pth("b"), opAdvance, 50, opRemove, pth("a"), opWrite, pth("abc")),
	"root-watch":              prog(opWatch, pth(""), opWrite, pth("cba"), opMkdir, pth("b"), opRemove, pth("cb"), opWrite, pth("")),
	"write-root":              prog(opWatch, pth("abc"), opWatch, pth("c"), opWatch, pth(""), opWrite, pth(""), opRemove, pth("")),
	"unwatch-in-flight":       prog(opWatch, pth("ab"), opWatch, pth("a"), opWrite, pth("ab"), opUnwatch, 0, opAdvance, 10, opWrite, pth("ab"), opAdvance, 25, opUnwatch, 0, opWatch, pth("ab")),
	"interleaved-registration": prog(opWatch, pth("ab"), opWatch, pth(""), opWatch, pth("abc"), opWatch, pth("a"), opWatch, pth("abc"), opWatch, pth("ab"),
		opWrite, pth("ab"), opWrite, pth("abc"), opWrite, pth("a"), opUnwatch, 2, opWrite, pth("abc")),
	"prune-and-rewatch": prog(opWatch, pth("abc"), opWatch, pth("ab"), opUnwatch, 0, opUnwatch, 0, opWatch, pth("abc"), opWrite, pth("a")),
	"txn":               prog(opWatch, pth("a"), opWatch, pth(""), opWrite, pth("abc"), opTxn, 5, opTxn, 0xff, opTxn, 42),
	"sloppy-paths":      prog(opWatch, pth("ab")|0x80, opWrite, pth("ab")|0x80, opWrite, pth("abc")|0x80, opRemove, pth("a")|0x80),
	"missing-remove":    prog(opWatch, pth(""), opRemove, pth("ab"), opStep, 0, opRemove, pth("")),
}

func TestWatchDispatchScenarios(t *testing.T) {
	for name, prog := range watchScenarios {
		prog := prog
		t.Run(name, func(t *testing.T) {
			h := newWatchHarness(t)
			h.run(prog)
			if h.fired == 0 {
				t.Fatal("scenario delivered no fires")
			}
		})
	}
}

// TestWatchDispatchChurnAgainstModel runs long seeded random programs
// through the harness.
func TestWatchDispatchChurnAgainstModel(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		x := seed * 0x9e3779b97f4a7c15
		next := func() byte { // xorshift64: deterministic, no global rand state
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return byte(x >> 32)
		}
		prog := make([]byte, 2*600)
		for i := range prog {
			prog[i] = next()
		}
		h := newWatchHarness(t)
		h.run(prog)
		if h.fired < 100 {
			t.Fatalf("seed %d: only %d fires delivered; the program exercises nothing", seed, h.fired)
		}
	}
}

// FuzzWatchDispatch feeds arbitrary programs to the same harness. The
// checked-in corpus lives in testdata/fuzz/FuzzWatchDispatch.
func FuzzWatchDispatch(f *testing.F) {
	for _, prog := range watchScenarios {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1024 {
			prog = prog[:1024]
		}
		newWatchHarness(t).run(prog)
	})
}

// TestWatchDispatchIsIndexed pins the cost of one dispatch: with 10 000
// watches on disjoint device paths, a write examines the trie nodes along
// its own path and beneath it — depth + hits — not the other 9 999 watches.
func TestWatchDispatchIsIndexed(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng)
	var hits int
	for dom := 0; dom < 10000; dom++ {
		path := fmt.Sprintf("/local/domain/%d/device/vif/0/state", dom)
		s.Watch(path, "", func(string, string) { hits++ })
	}
	root := s.Watch("/local/domain", "", func(string, string) { hits++ })
	eng.Run()

	const depth = 7 // local, domain, 7, device, vif, 0, state
	check := func(what string, wantHits int, mutate func()) {
		t.Helper()
		hits = 0
		before := s.trieVisits
		mutate()
		eng.Run()
		if hits != wantHits {
			t.Fatalf("%s: %d watches fired, want %d", what, hits, wantHits)
		}
		// The root node and the changed path's own nodes, plus at most one
		// node per hit beneath it.
		if visited, bound := s.trieVisits-before, uint64(1+depth+wantHits); visited > bound {
			t.Fatalf("%s: examined %d index nodes, want at most %d (depth + hits)", what, visited, bound)
		}
	}
	check("leaf write", 2, func() { s.Write("/local/domain/7/device/vif/0/state", "4") })
	check("sibling write", 1, func() { s.Write("/local/domain/7/device/vif/0/mac", "x") })
	check("unwatched subtree", 1, func() { s.Write("/local/domain/7/backend/vbd/3/0/state", "1") })
	check("elsewhere", 0, func() { s.Write("/tool/xenstored", "1") })
	s.Unwatch(root)
	check("after unwatch", 1, func() { s.Write("/local/domain/7/device/vif/0/state", "5") })
	// Removing one domain's directory takes exactly its one watcher along.
	check("directory remove", 1, func() {
		if err := s.Remove("/local/domain/7"); err != nil {
			t.Fatal(err)
		}
	})
}

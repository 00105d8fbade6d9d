package xenstore

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"kite/internal/sim"
)

func newStore() (*sim.Engine, *Store) {
	eng := sim.NewEngine()
	return eng, New(eng)
}

func TestReadWrite(t *testing.T) {
	_, s := newStore()
	s.Write("/local/domain/1/name", "domU")
	v, ok := s.Read("/local/domain/1/name")
	if !ok || v != "domU" {
		t.Fatalf("read = %q,%v", v, ok)
	}
	if _, ok := s.Read("/missing"); ok {
		t.Fatal("missing path read succeeded")
	}
}

func TestPathNormalization(t *testing.T) {
	_, s := newStore()
	s.Write("a/b//c/", "v")
	if v, ok := s.Read("/a/b/c"); !ok || v != "v" {
		t.Fatalf("normalized read = %q,%v", v, ok)
	}
}

func TestReadInt(t *testing.T) {
	_, s := newStore()
	s.Write("/x", "42")
	s.Write("/y", "notanumber")
	if v, ok := s.ReadInt("/x"); !ok || v != 42 {
		t.Fatalf("ReadInt = %d,%v", v, ok)
	}
	if _, ok := s.ReadInt("/y"); ok {
		t.Fatal("malformed int parsed")
	}
	if _, ok := s.ReadInt("/absent"); ok {
		t.Fatal("absent int parsed")
	}
}

func TestListSorted(t *testing.T) {
	_, s := newStore()
	s.Write("/dev/vif/2", "b")
	s.Write("/dev/vif/0", "a")
	s.Write("/dev/vif/1", "c")
	got := s.List("/dev/vif")
	want := []string{"0", "1", "2"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("List = %v, want %v", got, want)
	}
	if s.List("/nothing") != nil {
		t.Fatal("List of missing dir returned non-nil")
	}
}

func TestRemoveSubtree(t *testing.T) {
	_, s := newStore()
	s.Write("/a/b/c", "1")
	s.Write("/a/b/d", "2")
	if err := s.Remove("/a/b"); err != nil {
		t.Fatal(err)
	}
	if s.Exists("/a/b/c") || s.Exists("/a/b") {
		t.Fatal("subtree survived Remove")
	}
	if !s.Exists("/a") {
		t.Fatal("parent removed too")
	}
	if err := s.Remove("/a/b"); err == nil {
		t.Fatal("removing missing path succeeded")
	}
	if err := s.Remove("/"); err == nil {
		t.Fatal("removing root succeeded")
	}
}

func TestWatchInitialFire(t *testing.T) {
	eng, s := newStore()
	var got []string
	s.Watch("/backend/vif", "tok", func(path, token string) {
		got = append(got, path+"|"+token)
	})
	eng.Run()
	if len(got) != 1 || got[0] != "/backend/vif|tok" {
		t.Fatalf("initial fire = %v", got)
	}
}

func TestWatchFiresOnSubtreeChange(t *testing.T) {
	eng, s := newStore()
	var paths []string
	s.Watch("/backend/vif", "t", func(path, _ string) { paths = append(paths, path) })
	eng.Run() // drain initial fire
	paths = nil

	s.Write("/backend/vif/1/0/state", "1")
	s.Write("/frontend/other", "x") // outside subtree
	eng.Run()
	if len(paths) != 1 || paths[0] != "/backend/vif/1/0/state" {
		t.Fatalf("watch fires = %v, want exactly the subtree change", paths)
	}
}

func TestWatchFiresOnAncestorRemoval(t *testing.T) {
	eng, s := newStore()
	s.Write("/backend/vif/1/0/state", "4")
	fired := 0
	s.Watch("/backend/vif/1/0/state", "t", func(string, string) { fired++ })
	eng.Run()
	fired = 0
	// Removing an ancestor of the watched path must fire the watch.
	s.Remove("/backend/vif/1")
	eng.Run()
	if fired != 1 {
		t.Fatalf("ancestor removal fired %d times, want 1", fired)
	}
}

func TestUnwatchSuppressesInFlight(t *testing.T) {
	eng, s := newStore()
	fired := 0
	w := s.Watch("/x", "t", func(string, string) { fired++ })
	s.Write("/x", "1") // queues a fire
	s.Unwatch(w)
	eng.Run()
	if fired != 0 {
		t.Fatalf("unwatched callback ran %d times", fired)
	}
}

func TestWatchAsyncOrdering(t *testing.T) {
	eng, s := newStore()
	var order []string
	s.Watch("/k", "t", func(string, string) { order = append(order, "watch") })
	eng.Run()
	order = nil
	s.Write("/k", "v")
	order = append(order, "write-returned")
	eng.Run()
	if len(order) != 2 || order[0] != "write-returned" {
		t.Fatalf("watch fired synchronously: %v", order)
	}
}

func TestPermissions(t *testing.T) {
	_, s := newStore()
	s.Write("/local/domain/5/secret", "key")
	s.SetPerms("/local/domain/5", 5, []DomID{5})

	if _, err := s.ReadAs(7, "/local/domain/5/secret"); err == nil {
		t.Fatal("foreign domain read allowed")
	}
	if v, err := s.ReadAs(5, "/local/domain/5/secret"); err != nil || v != "key" {
		t.Fatalf("owner read = %q, %v", v, err)
	}
	if _, err := s.ReadAs(0, "/local/domain/5/secret"); err != nil {
		t.Fatal("Dom0 read denied")
	}
	if err := s.WriteAs(7, "/local/domain/5/secret", "x"); err == nil {
		t.Fatal("foreign write allowed")
	}
	if err := s.WriteAs(5, "/local/domain/5/secret", "x"); err != nil {
		t.Fatal(err)
	}
}

func TestWorldReadableByDefault(t *testing.T) {
	_, s := newStore()
	s.Write("/public", "v")
	if _, err := s.ReadAs(9, "/public"); err != nil {
		t.Fatalf("world-readable read denied: %v", err)
	}
}

func TestTxnCommitApplies(t *testing.T) {
	_, s := newStore()
	txn := s.Begin()
	txn.Write("/a", "1")
	txn.Write("/b", "2")
	if _, ok := s.Read("/a"); ok {
		t.Fatal("txn write visible before commit")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Read("/a"); v != "1" {
		t.Fatal("txn write lost")
	}
}

func TestTxnReadsOwnWrites(t *testing.T) {
	_, s := newStore()
	s.Write("/a", "old")
	txn := s.Begin()
	txn.Write("/a", "new")
	if v, ok := txn.Read("/a"); !ok || v != "new" {
		t.Fatalf("txn read-own-write = %q,%v", v, ok)
	}
	txn.Remove("/a")
	if _, ok := txn.Read("/a"); ok {
		t.Fatal("txn read after own delete succeeded")
	}
	txn.Abort()
	if v, _ := s.Read("/a"); v != "old" {
		t.Fatal("aborted txn modified store")
	}
}

func TestTxnConflictOnRead(t *testing.T) {
	_, s := newStore()
	s.Write("/seq", "1")
	txn := s.Begin()
	txn.Read("/seq")
	s.Write("/seq", "2") // concurrent writer
	txn.Write("/out", "computed")
	if err := txn.Commit(); err == nil {
		t.Fatal("conflicting txn committed")
	}
	if s.Exists("/out") {
		t.Fatal("failed txn leaked writes")
	}
}

func TestTxnConflictOnWrite(t *testing.T) {
	_, s := newStore()
	txn := s.Begin()
	txn.Write("/slot", "mine")
	s.Write("/slot", "theirs")
	if err := txn.Commit(); err == nil {
		t.Fatal("write-write conflict committed")
	}
	if v, _ := s.Read("/slot"); v != "theirs" {
		t.Fatal("conflicting txn clobbered concurrent write")
	}
}

func TestTxnUseAfterFinishPanics(t *testing.T) {
	_, s := newStore()
	txn := s.Begin()
	txn.Abort()
	defer func() {
		if recover() == nil {
			t.Fatal("use after abort did not panic")
		}
	}()
	txn.Write("/x", "1")
}

func TestTxnRetrySucceeds(t *testing.T) {
	_, s := newStore()
	s.Write("/counter", "1")
	// First attempt conflicts; retry like a real client would.
	for attempt := 0; ; attempt++ {
		txn := s.Begin()
		v, _ := txn.Read("/counter")
		if attempt == 0 {
			s.Write("/counter", "5") // induce conflict only once
		}
		txn.Write("/counter", v+"0")
		if err := txn.Commit(); err == nil {
			break
		}
		if attempt > 3 {
			t.Fatal("retry never succeeded")
		}
	}
	if v, _ := s.Read("/counter"); v != "50" {
		t.Fatalf("counter = %q, want 50 (retry saw fresh value)", v)
	}
}

// Property: a write is always readable back, and List contains the new
// child, regardless of path shape.
func TestWriteReadProperty(t *testing.T) {
	prop := func(rawSegs []string, value string) bool {
		segs := make([]string, 0, len(rawSegs))
		for _, seg := range rawSegs {
			seg = strings.Map(func(r rune) rune {
				if r == '/' || r == 0 {
					return 'x'
				}
				return r
			}, seg)
			if seg != "" {
				segs = append(segs, seg)
			}
		}
		if len(segs) == 0 {
			return true
		}
		_, s := newStore()
		path := "/" + strings.Join(segs, "/")
		s.Write(path, value)
		got, ok := s.Read(path)
		return ok && got == value
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuotaEnforced(t *testing.T) {
	_, s := newStore()
	s.Quota = 5
	s.SetPerms("/local/domain/7", 7, nil)
	for i := 0; i < 5; i++ {
		if err := s.WriteAs(7, fmt.Sprintf("/local/domain/7/key%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WriteAs(7, "/local/domain/7/one-too-many", "v"); err == nil {
		t.Fatal("quota not enforced")
	}
	// Overwrites of existing nodes do not consume quota.
	if err := s.WriteAs(7, "/local/domain/7/key0", "v2"); err != nil {
		t.Fatalf("overwrite hit quota: %v", err)
	}
	// Dom0 is exempt.
	for i := 0; i < 20; i++ {
		if err := s.WriteAs(0, fmt.Sprintf("/admin/%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if s.OwnedNodes(7) != 5 {
		t.Fatalf("owned = %d, want 5", s.OwnedNodes(7))
	}
	s.ReleaseQuota(7, 3)
	if err := s.WriteAs(7, "/local/domain/7/after-release", "v"); err != nil {
		t.Fatalf("write after release failed: %v", err)
	}
}

// TestTxnConflictNamesAFixedPath: with several conflicting paths, the one
// the error names follows from the transaction, not from map iteration.
func TestTxnConflictNamesAFixedPath(t *testing.T) {
	for round := 0; round < 20; round++ {
		_, s := newStore()
		for _, p := range []string{"/r/d", "/r/b", "/r/c", "/r/a"} {
			s.Write(p, "1")
		}
		txn := s.Begin()
		for _, p := range []string{"/r/d", "/r/b", "/r/c", "/r/a"} {
			txn.Read(p)
		}
		for _, p := range []string{"/r/d", "/r/b", "/r/c", "/r/a"} {
			s.Write(p, "2")
		}
		err := txn.Commit()
		if err == nil || !strings.HasSuffix(err.Error(), " /r/a") {
			t.Fatalf("round %d: read conflict = %v, want the first path in sorted order (/r/a)", round, err)
		}

		txn = s.Begin()
		for _, p := range []string{"/w/d", "/w/b", "/w/c"} {
			txn.Write(p, "mine")
		}
		for _, p := range []string{"/w/b", "/w/c", "/w/d"} {
			s.Write(p, "theirs")
		}
		err = txn.Commit()
		if err == nil || !strings.HasSuffix(err.Error(), " /w/d") {
			t.Fatalf("round %d: write conflict = %v, want the first path written (/w/d)", round, err)
		}
	}
}

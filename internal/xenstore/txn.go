package xenstore

import (
	"fmt"
	"sort"
)

// Txn is an optimistic transaction (XS_TRANSACTION_START/END). Reads and
// writes are buffered; Commit re-validates that every path the transaction
// read or wrote is unchanged since Begin and applies the writes atomically,
// or fails so the caller can retry — the same protocol xenstored clients
// implement.
type Txn struct {
	store    *Store
	snapshot uint64
	reads    map[string]uint64  // path -> version seen (0 = absent)
	writes   map[string]*string // nil value = delete
	order    []string
	done     bool
}

// Begin starts a transaction.
func (s *Store) Begin() *Txn {
	return &Txn{
		store:    s,
		snapshot: s.version,
		reads:    make(map[string]uint64),
		writes:   make(map[string]*string),
	}
}

func (t *Txn) checkLive() {
	if t.done {
		panic("xenstore: use of finished transaction")
	}
}

// Read reads through the transaction, observing its own buffered writes.
func (t *Txn) Read(path string) (string, bool) {
	t.checkLive()
	path = normalize(path)
	if v, ok := t.writes[path]; ok {
		if v == nil {
			return "", false
		}
		return *v, true
	}
	n := t.store.lookup(path)
	if n == nil || !n.hasValue {
		t.reads[path] = 0
		return "", false
	}
	t.reads[path] = n.version
	return n.value, true
}

// Write buffers a write.
func (t *Txn) Write(path, value string) {
	t.checkLive()
	path = normalize(path)
	if _, seen := t.writes[path]; !seen {
		t.order = append(t.order, path)
	}
	v := value
	t.writes[path] = &v
}

// Remove buffers a delete.
func (t *Txn) Remove(path string) {
	t.checkLive()
	path = normalize(path)
	if _, seen := t.writes[path]; !seen {
		t.order = append(t.order, path)
	}
	t.writes[path] = nil
}

// Commit validates and applies the transaction. On conflict it returns an
// error and applies nothing; the transaction is finished either way.
func (t *Txn) Commit() error {
	t.checkLive()
	t.done = true
	// Validate in a fixed order, so the path a conflict names is a function
	// of the transaction rather than of map iteration.
	readPaths := make([]string, 0, len(t.reads))
	for path := range t.reads { //kite:orderok keys are sorted before use
		readPaths = append(readPaths, path)
	}
	sort.Strings(readPaths)
	for _, path := range readPaths {
		sawVersion := t.reads[path]
		n := t.store.lookup(path)
		var cur uint64
		if n != nil && n.hasValue {
			cur = n.version
		}
		if cur != sawVersion {
			return fmt.Errorf("xenstore: transaction conflict on %s", path)
		}
	}
	// Paths written must not have changed since the snapshot either.
	for _, path := range t.order {
		if n := t.store.lookup(path); n != nil && n.version > t.snapshot {
			return fmt.Errorf("xenstore: transaction conflict on %s", path)
		}
	}
	for _, path := range t.order {
		if v := t.writes[path]; v == nil {
			// Deleting a path that was never created is fine inside a txn.
			if t.store.Exists(path) {
				_ = t.store.Remove(path)
			}
		} else {
			t.store.Write(path, *v)
		}
	}
	return nil
}

// Abort discards the transaction.
func (t *Txn) Abort() {
	t.checkLive()
	t.done = true
}

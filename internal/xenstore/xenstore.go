// Package xenstore implements the xenstored database: a small hierarchical
// key-value store with watches and transactions, shared between domains.
// The paper's backend-invocation design (§4.1) hangs entirely off this
// component — backends set watches on their driver-domain paths and a
// dedicated thread pairs up frontends when the watch fires.
//
// Watches fire asynchronously (scheduled on the simulation engine) exactly
// once per mutation per registered watch, plus the initial registration
// fire xenstored performs. Transactions provide optimistic concurrency:
// commit fails if any path the transaction touched changed underneath it.
//
// Every watch fire is a simulation event, so the store is part of the
// deterministic timeline: watches fire in registration order, never in map
// order.
package xenstore

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"kite/internal/sim"
)

// DomID mirrors xen.DomID without importing it (xenstore is lower-level).
type DomID uint16

// node is one path segment of the data tree. Children are held sorted by
// name: a store holds one small directory per device key, and a slice
// costs a pointer a child where a map costs a table per directory.
type node struct {
	name     string
	children []*node
	value    string
	version  uint64
	readers  map[DomID]bool // nil means world-readable
	owner    DomID
	hasValue bool
	hasPerms bool // SetPerms was called on this node
}

// Watch is a registered watch; the callback receives the path that changed
// and the token supplied at registration.
type Watch struct {
	path    string
	token   string
	fn      func(path, token string)
	store   *Store
	at      *watchNode // trie node the watch is registered on
	seq     uint64     // registration sequence number: the fire order
	dead    bool
	pending int
}

// watchNode is one path segment of the watch index. The index is a trie of
// its own rather than a field of the data nodes, so a watch on a path that
// does not exist yet — or whose node is removed — stays registered.
// Children are held sorted by name, as the data tree's are.
type watchNode struct {
	parent   *watchNode
	name     string
	children []*watchNode
	watches  []*Watch // registered exactly here, in registration order
}

func (n *node) key() string      { return n.name }
func (n *watchNode) key() string { return n.name }

// child finds name among kids, sorted by name: its index if found, else
// where it would go.
func child[T interface{ key() string }](kids []T, name string) (int, bool) {
	return slices.BinarySearchFunc(kids, name, func(k T, name string) int { return strings.Compare(k.key(), name) })
}

// Store is the xenstored database.
type Store struct {
	eng     *sim.Engine
	root    *node
	version uint64

	watchRoot  watchNode
	watchSeq   uint64
	watches    int      // live (registered, not yet cancelled) watches
	hits       []*Watch // fireWatches scratch; reused, never retained
	trieVisits uint64   // watch-index nodes examined by fireWatches

	// OpLatency models the round trip to the xenstored daemon in Dom0.
	// Control-plane only; it never sits on the data path.
	OpLatency sim.Time

	// Quota bounds how many nodes one unprivileged domain may own —
	// xenstored's defence against a guest exhausting the store (the
	// toolstack-DoS class §1 worries about). Dom0 is exempt.
	Quota int

	owned map[DomID]int
}

// New creates an empty store.
func New(eng *sim.Engine) *Store {
	return &Store{
		eng:       eng,
		root:      &node{},
		OpLatency: 30 * sim.Microsecond,
		Quota:     1000,
		owned:     make(map[DomID]int),
	}
}

// nextSeg returns the first non-empty segment of path and what follows it;
// seg is "" once the path is exhausted. Walking a path this way allocates
// nothing and skips empty segments, so "a//b/" and "/a/b" name one node.
func nextSeg(path string) (seg, rest string) {
	for len(path) > 0 && path[0] == '/' {
		path = path[1:]
	}
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i], path[i+1:]
	}
	return path, ""
}

// normalize returns the canonical "/a/b" spelling of path; a path already
// spelled that way is returned as is.
func normalize(path string) string {
	if path == "/" || (len(path) > 1 && path[0] == '/' && path[len(path)-1] != '/' && !strings.Contains(path, "//")) {
		return path
	}
	var b strings.Builder
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		b.WriteByte('/')
		b.WriteString(seg)
	}
	if b.Len() == 0 {
		return "/"
	}
	return b.String()
}

func (s *Store) lookup(path string) *node {
	n := s.root
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		i, ok := child(n.children, seg)
		if !ok {
			return nil
		}
		n = n.children[i]
	}
	return n
}

func (s *Store) ensure(path string) *node {
	n := s.root
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		i, ok := child(n.children, seg)
		if !ok {
			n.children = slices.Insert(n.children, i, &node{name: seg})
		}
		n = n.children[i]
	}
	return n
}

// Write stores value at path, creating intermediate directories.
func (s *Store) Write(path, value string) {
	s.version++
	n := s.ensure(path)
	n.value = value
	n.hasValue = true
	n.version = s.version
	s.fireWatches(normalize(path))
}

// Writef writes a formatted value.
func (s *Store) Writef(path, format string, args ...any) {
	s.Write(path, fmt.Sprintf(format, args...))
}

// Read returns the value at path and whether it exists.
func (s *Store) Read(path string) (string, bool) {
	n := s.lookup(path)
	if n == nil || !n.hasValue {
		return "", false
	}
	return n.value, true
}

// ReadInt reads an integer value; ok is false if absent or malformed.
func (s *Store) ReadInt(path string) (int64, bool) {
	v, ok := s.Read(path)
	if !ok {
		return 0, false
	}
	out, err := strconv.ParseInt(v, 10, 64)
	return out, err == nil
}

// Mkdir creates an empty directory node.
func (s *Store) Mkdir(path string) {
	s.version++
	s.ensure(path).version = s.version
	s.fireWatches(normalize(path))
}

// Exists reports whether a node (value or directory) exists at path.
func (s *Store) Exists(path string) bool { return s.lookup(path) != nil }

// Remove deletes the subtree at path. Removing a missing path is an error,
// as in xenstored.
func (s *Store) Remove(path string) error {
	var parent *node
	var at int
	n := s.root
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		i, ok := child(n.children, seg)
		if !ok {
			return fmt.Errorf("xenstore: remove of missing path %s", path)
		}
		parent, n, at = n, n.children[i], i
	}
	if parent == nil {
		return fmt.Errorf("xenstore: refusing to remove root")
	}
	parent.children = slices.Delete(parent.children, at, at+1)
	s.version++
	s.fireWatches(normalize(path))
	return nil
}

// List returns the sorted child names of a directory (empty for missing).
func (s *Store) List(path string) []string {
	n := s.lookup(path)
	if n == nil {
		return nil
	}
	out := make([]string, len(n.children))
	for i, c := range n.children {
		out[i] = c.name
	}
	return out
}

// Watch registers fn for changes at or below path. As xenstored does, the
// watch fires once immediately upon registration.
func (s *Store) Watch(path, token string, fn func(path, token string)) *Watch {
	at := &s.watchRoot
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		i, ok := child(at.children, seg)
		if !ok {
			at.children = slices.Insert(at.children, i, &watchNode{parent: at, name: seg})
		}
		at = at.children[i]
	}
	s.watchSeq++
	w := &Watch{path: normalize(path), token: token, fn: fn, store: s, at: at, seq: s.watchSeq}
	at.watches = append(at.watches, w)
	s.watches++
	s.fire(w, w.path)
	return w
}

// Watches returns the number of live watches: what a departed device must
// not leave behind.
func (s *Store) Watches() int { return s.watches }

// Unwatch removes a watch; in-flight callbacks are suppressed. Index nodes
// left with neither watches nor children are pruned, so the trie never
// outgrows the live watch set.
func (s *Store) Unwatch(w *Watch) {
	if w.dead {
		return
	}
	w.dead = true
	s.watches--
	at := w.at
	for i, x := range at.watches {
		if x == w {
			at.watches = append(at.watches[:i], at.watches[i+1:]...)
			break
		}
	}
	for at.parent != nil && len(at.watches) == 0 && len(at.children) == 0 {
		up := at.parent
		i, _ := child(up.children, at.name)
		up.children = slices.Delete(up.children, i, i+1)
		at = up
	}
}

// fireWatches fires every watch at, above or below the changed path, in
// registration order. Cost is O(depth + hits): the descent collects the
// watches on each ancestor-or-self node, then the subtree under the changed
// path (a removed or rewritten directory takes its watchers with it) is
// collected whole. Registration order is what a flat list would give, and it
// fixes the order of the eng.After calls — hence every fire's tie-break seq.
//
// Same-instant FIFO contract: the fires of one write all land OpLatency
// later, at one instant, and run in registration order only because the
// engine runs same-instant events in the order they were scheduled.
func (s *Store) fireWatches(changed string) {
	hits := s.hits[:0]
	at := &s.watchRoot
	for seg, rest := nextSeg(changed); ; seg, rest = nextSeg(rest) {
		s.trieVisits++
		hits = append(hits, at.watches...)
		if seg == "" {
			hits = s.collectBelow(at, hits)
			break
		}
		i, ok := child(at.children, seg)
		if !ok {
			break
		}
		at = at.children[i]
	}
	// Insertion sort: each node's watches are already in order and hits are
	// few, so this is near-linear and allocates nothing.
	for i := 1; i < len(hits); i++ {
		w := hits[i]
		j := i
		for ; j > 0 && hits[j-1].seq > w.seq; j-- {
			hits[j] = hits[j-1]
		}
		hits[j] = w
	}
	for _, w := range hits {
		s.fire(w, changed)
	}
	clear(hits)
	s.hits = hits[:0]
}

// collectBelow appends every watch registered strictly beneath at.
func (s *Store) collectBelow(at *watchNode, hits []*Watch) []*Watch {
	for _, c := range at.children {
		s.trieVisits++
		hits = append(hits, c.watches...)
		hits = s.collectBelow(c, hits)
	}
	return hits
}

func (s *Store) fire(w *Watch, path string) {
	w.pending++
	s.eng.After(s.OpLatency, func() {
		w.pending--
		if w.dead {
			return
		}
		w.fn(path, w.token)
	})
}

// SetPerms sets the owner and (optionally) restricted reader set of a
// subtree root. A nil readers slice means world-readable.
func (s *Store) SetPerms(path string, owner DomID, readers []DomID) {
	n := s.ensure(path)
	n.owner = owner
	n.hasPerms = true
	if readers == nil {
		n.readers = nil
		return
	}
	n.readers = make(map[DomID]bool, len(readers))
	for _, r := range readers {
		n.readers[r] = true
	}
}

// ReadAs performs a permission-checked read on behalf of dom: the owner and
// listed readers (and Dom0) may read; others get an error. Permissions are
// looked up on the nearest ancestor that declared any.
func (s *Store) ReadAs(dom DomID, path string) (string, error) {
	owner, readers := s.permsFor(path)
	if dom != 0 && dom != owner && readers != nil && !readers[dom] {
		return "", fmt.Errorf("xenstore: domain %d denied read of %s", dom, path)
	}
	v, ok := s.Read(path)
	if !ok {
		return "", fmt.Errorf("xenstore: %s does not exist", path)
	}
	return v, nil
}

// WriteAs performs a permission-checked, quota-checked write: only the
// owner and Dom0 may write, and unprivileged domains may not own more
// than Quota nodes.
func (s *Store) WriteAs(dom DomID, path, value string) error {
	owner, _ := s.permsFor(path)
	if dom != 0 && dom != owner {
		return fmt.Errorf("xenstore: domain %d denied write of %s", dom, path)
	}
	if dom != 0 && !s.Exists(path) {
		if s.owned[dom] >= s.Quota {
			return fmt.Errorf("xenstore: domain %d exceeded its %d-node quota", dom, s.Quota)
		}
		s.owned[dom]++
	}
	s.Write(path, value)
	return nil
}

// OwnedNodes returns how many nodes a domain has created through WriteAs.
func (s *Store) OwnedNodes(dom DomID) int { return s.owned[dom] }

// ReleaseQuota returns n nodes to a domain's allowance (the toolstack
// calls it when tearing down the domain's subtree).
func (s *Store) ReleaseQuota(dom DomID, n int) {
	s.owned[dom] -= n
	if s.owned[dom] < 0 {
		s.owned[dom] = 0
	}
}

func (s *Store) permsFor(path string) (DomID, map[DomID]bool) {
	n := s.root
	var owner DomID
	var readers map[DomID]bool
	for seg, rest := nextSeg(path); seg != ""; seg, rest = nextSeg(rest) {
		i, ok := child(n.children, seg)
		if !ok {
			break
		}
		n = n.children[i]
		if n.hasPerms {
			owner = n.owner
			readers = n.readers
		}
	}
	return owner, readers
}

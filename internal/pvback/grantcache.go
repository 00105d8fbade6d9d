package pvback

import "kite/internal/xen"

// GrantCache is a backend queue's persistent-grant cache (§3.3): the
// mappings of the grant refs a frontend recycles for the device's lifetime,
// so that every use after a ref's first costs no map hypercall. A grant ref
// is a small dense integer, so the cache is a table indexed by ref — a hit
// is a bounds check and a load. Frontends keep a ref on one queue, so
// per-queue caches never hold a mapping twice. The zero value is empty and
// ready.
type GrantCache struct {
	byRef []*xen.Mapping
}

// Lookup returns ref's cached mapping, nil on a miss: never filled, or
// unmapped since (a dead mapping is a miss, and the next Fill replaces it).
func (c *GrantCache) Lookup(ref xen.GrantRef) *xen.Mapping {
	if int(ref) < len(c.byRef) {
		if m := c.byRef[ref]; m != nil && m.Live() {
			return m
		}
	}
	return nil
}

// Fill caches m under its ref. It takes the mapping, not the ref, so the
// table only ever grows to a ref the hypervisor accepted: a hostile
// frontend posting ref 4×10⁹ fails its map and sizes nothing.
func (c *GrantCache) Fill(m *xen.Mapping) {
	ref := int(m.Ref())
	for ref >= len(c.byRef) {
		c.byRef = append(c.byRef, nil)
	}
	c.byRef[ref] = m
}

// Drain unmaps every live cached mapping in one batch charged to mapper
// (instance teardown) and leaves the cache empty and reusable.
func (c *GrantCache) Drain(mapper *xen.Domain) {
	var live []*xen.Mapping
	for _, m := range c.byRef {
		if m != nil && m.Live() {
			live = append(live, m)
		}
	}
	// The batch fails only on a dead mapping, and those were just skipped.
	_ = mapper.Hypervisor().UnmapGrantBatch(mapper, live)
	clear(c.byRef)
}

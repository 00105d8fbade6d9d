package pvback

import (
	"testing"

	"kite/internal/sim"
	"kite/internal/xen"
)

// grantRig is a backend domain and a guest with n pages granted to it.
func grantRig(t *testing.T, n int) (hv *xen.Hypervisor, dd, guest *xen.Domain, refs []xen.GrantRef) {
	t.Helper()
	hv = xen.New(sim.NewEngine())
	hv.CreateDomain(xen.DomainConfig{Name: "dom0", VCPUs: 1, MemBytes: 16 << 20, Privileged: true})
	dd = hv.CreateDomain(xen.DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 16 << 20})
	guest = hv.CreateDomain(xen.DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 16 << 20})
	pages, err := guest.Arena.AllocN(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		refs = append(refs, guest.GrantAccess(dd.ID, p, false))
	}
	return hv, dd, guest, refs
}

// resolve is the backends' use of the cache (netback.rxMapping,
// blkback.mapRef): hit, or map and fill only if the map succeeded.
func resolve(c *GrantCache, hv *xen.Hypervisor, dd, guest *xen.Domain, ref xen.GrantRef) (m *xen.Mapping, hit bool) {
	if m := c.Lookup(ref); m != nil {
		return m, true
	}
	m, err := hv.MapGrant(dd, guest.ID, ref)
	if err != nil {
		return nil, false
	}
	c.Fill(m)
	return m, false
}

func TestGrantCacheHitsAfterFirstMap(t *testing.T) {
	hv, dd, guest, refs := grantRig(t, 8)
	var c GrantCache
	first := make([]*xen.Mapping, len(refs))
	for i, ref := range refs {
		m, hit := resolve(&c, hv, dd, guest, ref)
		if m == nil || hit {
			t.Fatalf("ref %d: first resolve = (%v, hit %v), want a fresh mapping", ref, m, hit)
		}
		first[i] = m
	}
	maps := hv.Stats().GrantMaps
	for i, ref := range refs {
		if m, hit := resolve(&c, hv, dd, guest, ref); m != first[i] || !hit {
			t.Fatalf("ref %d: second resolve missed the cache", ref)
		}
	}
	if hv.Stats().GrantMaps != maps {
		t.Fatal("cache hits paid map hypercalls")
	}
	// A mapping unmapped behind the cache's back is a miss, and the refill
	// replaces it.
	if err := hv.UnmapGrant(dd, first[3]); err != nil {
		t.Fatal(err)
	}
	if m, hit := resolve(&c, hv, dd, guest, refs[3]); hit || m == nil || m == first[3] || !m.Live() {
		t.Fatal("dead cached mapping was served, or not replaced")
	}
}

func TestGrantCacheSizedOnlyByAcceptedRefs(t *testing.T) {
	// A hostile frontend posts refs it never granted. The map fails, nothing
	// is filled, and the table stays the size of the largest real ref: ref
	// 4×10⁹ as an index would be a 32 GB table.
	hv, dd, guest, refs := grantRig(t, 4)
	var c GrantCache
	resolve(&c, hv, dd, guest, refs[len(refs)-1])
	size := len(c.byRef)
	for _, bad := range []xen.GrantRef{4_000_000_000, 0xdeadbeef, refs[len(refs)-1] + 1, 0} {
		if m, _ := resolve(&c, hv, dd, guest, bad); m != nil {
			t.Fatalf("ref %d resolved without a grant", bad)
		}
		if c.Lookup(bad) != nil {
			t.Fatalf("ref %d cached without a grant", bad)
		}
	}
	if len(c.byRef) != size || size > int(refs[len(refs)-1])+1 {
		t.Fatalf("table holds %d slots after hostile refs, was %d for top ref %d", len(c.byRef), size, refs[len(refs)-1])
	}
}

func TestGrantCacheDrainThenReuse(t *testing.T) {
	hv, dd, guest, refs := grantRig(t, 6)
	var c GrantCache
	var maps []*xen.Mapping
	for _, ref := range refs {
		m, _ := resolve(&c, hv, dd, guest, ref)
		maps = append(maps, m)
	}
	// One already dead at teardown: the batch must skip it, not fail on it.
	if err := hv.UnmapGrant(dd, maps[0]); err != nil {
		t.Fatal(err)
	}
	unmaps := hv.Stats().GrantUnmaps
	c.Drain(dd)
	if got := hv.Stats().GrantUnmaps - unmaps; got != uint64(len(refs)-1) {
		t.Fatalf("Drain unmapped %d, want the %d live mappings", got, len(refs)-1)
	}
	for i, ref := range refs {
		if maps[i].Live() {
			t.Fatalf("ref %d still mapped after Drain", ref)
		}
		if c.Lookup(ref) != nil {
			t.Fatalf("ref %d still cached after Drain", ref)
		}
		if err := guest.EndAccess(ref); err != nil {
			t.Fatalf("ref %d not revocable after Drain: %v", ref, err)
		}
	}
	c.Drain(dd) // empty: nothing to unmap, nothing charged
	if hv.Stats().GrantUnmaps-unmaps != uint64(len(refs)-1) {
		t.Fatal("draining an empty cache unmapped something")
	}
	// The drained cache serves a reconnected frontend's fresh grants.
	page := guest.Arena.MustAlloc()
	ref := guest.GrantAccess(dd.ID, page, false)
	if m, hit := resolve(&c, hv, dd, guest, ref); m == nil || hit {
		t.Fatal("drained cache did not take a fresh mapping")
	}
	if _, hit := resolve(&c, hv, dd, guest, ref); !hit {
		t.Fatal("drained cache did not hit on its refill")
	}
}

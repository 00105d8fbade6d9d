package xen

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"kite/internal/mem"
)

// modelGrant is the model's view of one live grant.
type modelGrant struct {
	page     *mem.Page
	remote   DomID
	readonly bool
	maps     int
}

// modelMapping is one mapping the program holds, with what the model
// expects its unmap to release.
type modelMapping struct {
	m     *Mapping
	owner *modelGranter
	ref   GrantRef
	// counted is false once the mapper died (its mappings were released
	// then) or the owner did: a late unmap then releases nothing.
	counted bool
}

// modelLoan is a loan LendGrant made, kept for its EndLoan.
type modelLoan struct {
	owner *modelGranter
	ref   GrantRef
	page  *mem.Page
	own   []byte
}

// modelGranter is a granting domain and the plain-map model of its table:
// the live grants by ref, the revoked refs as a stack (most recently
// revoked on top) and the next ref a table with none revoked issues.
type modelGranter struct {
	d       *Domain
	pages   []*mem.Page
	live    map[GrantRef]*modelGrant
	revoked []GrantRef
	fresh   GrantRef
	lent    map[*mem.Page]bool // a page that is or was left lent is not lent again
}

// newModelGranter builds a granting domain with 600 pages, carved 256 at a
// time (a netfront's rings) or one at a time (as blkfront grows its arena).
func newModelGranter(t *testing.T, hv *Hypervisor, name string, byPage bool) *modelGranter {
	g := &modelGranter{
		d:     hv.CreateDomain(DomainConfig{Name: name, VCPUs: 1, MemBytes: 1 << 30}),
		live:  make(map[GrantRef]*modelGrant),
		fresh: 1,
		lent:  make(map[*mem.Page]bool),
	}
	for len(g.pages) < 600 {
		if byPage {
			g.pages = append(g.pages, g.d.Arena.MustAlloc())
			continue
		}
		ps, err := g.d.Arena.AllocN(256)
		if err != nil {
			t.Fatal(err)
		}
		g.pages = append(g.pages, ps...)
	}
	return g
}

// anyRef returns a live ref nine times in ten, otherwise a ref that may be
// revoked, never issued or out of the table.
func (g *modelGranter) anyRef(rng *rand.Rand) GrantRef {
	if len(g.live) > 0 && rng.IntN(10) > 0 {
		refs := make([]GrantRef, 0, len(g.live))
		for ref := range g.live { //kite:orderok picked by sorted position below
			refs = append(refs, ref)
		}
		return minK(refs, rng.IntN(len(refs)))
	}
	return GrantRef(rng.IntN(int(g.fresh) + 2))
}

// minK returns the k-th smallest ref, so a pick from a map is a function
// of the seed alone.
func minK(refs []GrantRef, k int) GrantRef {
	for i := range k + 1 {
		for j := i + 1; j < len(refs); j++ {
			if refs[j] < refs[i] {
				refs[i], refs[j] = refs[j], refs[i]
			}
		}
	}
	return refs[k]
}

// TestGrantTableAgainstModel runs random programs of GrantAccess,
// EndAccess, MapGrant, UnmapGrant, LendGrant/EndLoan, grant copies and
// DestroyDomain on two granting domains, one with an arena carved 256
// pages at a time and one grown a page at a time, against a plain-map
// model. After every step each ref resolves to the model's page (nil when
// not live), refs come back most recently revoked first, EndAccess refuses
// a mapped grant and accepts it once every mapping is undone, and the live
// count agrees.
func TestGrantTableAgainstModel(t *testing.T) {
	for seed := range uint64(40) {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runGrantModel(t, seed) })
	}
}

func runGrantModel(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	_, hv, dom0 := newHV(t)
	granters := []*modelGranter{
		newModelGranter(t, hv, "slabs", false),
		newModelGranter(t, hv, "pages", true),
	}
	mappers := []*Domain{dom0, hv.CreateDomain(DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 1 << 20})}
	var mappings []*modelMapping
	var loans []*modelLoan

	for step := range 3000 {
		gi := rng.IntN(len(granters))
		g := granters[gi]
		switch op := rng.IntN(100); {
		case op < 30: // GrantAccess
			remote := mappers[rng.IntN(len(mappers))].ID
			page := g.pages[rng.IntN(len(g.pages))]
			ro := rng.IntN(4) == 0
			want := g.fresh
			if n := len(g.revoked); n > 0 {
				want = g.revoked[n-1]
				g.revoked = g.revoked[:n-1]
			} else {
				g.fresh++
			}
			if got := g.d.GrantAccess(remote, page, ro); got != want {
				t.Fatalf("step %d: GrantAccess issued ref %d, want %d", step, got, want)
			}
			g.live[want] = &modelGrant{page: page, remote: remote, readonly: ro}
		case op < 45: // EndAccess
			ref := g.anyRef(rng)
			mg := g.live[ref]
			err := g.d.EndAccess(ref)
			if wantOK := mg != nil && mg.maps == 0; (err == nil) != wantOK {
				t.Fatalf("step %d: EndAccess(%d) = %v, model live %v", step, ref, err, mg)
			}
			if err == nil {
				delete(g.live, ref)
				g.revoked = append(g.revoked, ref)
			}
		case op < 65: // MapGrant
			ref := g.anyRef(rng)
			mapper := mappers[rng.IntN(len(mappers))]
			mg := g.live[ref]
			m, err := hv.MapGrant(mapper, g.d.ID, ref)
			if wantOK := mg != nil && mg.remote == mapper.ID; (err == nil) != wantOK {
				t.Fatalf("step %d: MapGrant(%d) by %d = %v, model %v", step, ref, mapper.ID, err, mg)
			}
			if err == nil {
				if m.Page != mg.page {
					t.Fatalf("step %d: ref %d mapped page %d, want %d", step, ref, m.Page.ID, mg.page.ID)
				}
				mg.maps++
				mappings = append(mappings, &modelMapping{m: m, owner: g, ref: ref, counted: true})
			}
		case op < 80: // UnmapGrant
			if len(mappings) == 0 {
				continue
			}
			i := rng.IntN(len(mappings))
			mm := mappings[i]
			mappings = append(mappings[:i], mappings[i+1:]...)
			if err := hv.UnmapGrant(dom0, mm.m); err != nil {
				t.Fatalf("step %d: UnmapGrant: %v", step, err)
			}
			if mm.counted {
				mm.owner.live[mm.ref].maps--
			}
		case op < 86: // LendGrant
			ref := g.anyRef(rng)
			mg := g.live[ref]
			if mg == nil || g.lent[mg.page] {
				continue
			}
			loan := make([]byte, mem.PageSize)
			own := g.d.LendGrant(ref, loan)
			if p := g.d.GrantedPage(ref); &p.Bytes()[0] != &loan[0] {
				t.Fatalf("step %d: ref %d does not reach its loan", step, ref)
			}
			g.lent[mg.page] = true
			loans = append(loans, &modelLoan{owner: g, ref: ref, page: mg.page, own: own})
		case op < 92: // EndLoan
			if len(loans) == 0 {
				continue
			}
			i := rng.IntN(len(loans))
			l := loans[i]
			mg := l.owner.live[l.ref]
			if mg != nil && mg.page != l.page {
				continue // the ref was revoked and issued for another page
			}
			loans = append(loans[:i], loans[i+1:]...)
			l.owner.d.EndLoan(l.ref, l.own)
			if wantLent := mg == nil; l.page.Lent() != wantLent {
				t.Fatalf("step %d: EndLoan(%d) left the page lent %v, want %v", step, l.ref, l.page.Lent(), wantLent)
			}
			if mg != nil {
				l.owner.lent[l.page] = false
			}
		case op < 98: // a grant copy out of (or into) the grant by a mapper
			ref := g.anyRef(rng)
			caller := mappers[rng.IntN(len(mappers))]
			write := rng.IntN(2) == 0
			mg := g.live[ref]
			buf := make([]byte, 8)
			side := CopyPtr{Dom: g.d.ID, Ref: ref}
			cop := CopyOp{Src: side, Dst: CopyPtr{Data: buf}, Len: len(buf)}
			if write {
				cop = CopyOp{Src: CopyPtr{Data: buf}, Dst: side, Len: len(buf)}
			}
			want := CopyOkay
			switch {
			case mg == nil:
				want = CopyBadRef
			case mg.remote != caller.ID || (write && mg.readonly):
				want = CopyDenied
			}
			ops := []CopyOp{cop}
			_ = hv.CopyGrant(caller, ops)
			if ops[0].Status != want {
				t.Fatalf("step %d: copy on ref %d by %d (write %v): %v, want %v", step, ref, caller.ID, write, ops[0].Status, want)
			}
		default: // DestroyDomain: a mapper, or a granter, each replaced
			if rng.IntN(2) == 0 {
				dd := mappers[1]
				if err := hv.DestroyDomain(dd.ID); err != nil {
					t.Fatal(err)
				}
				for _, og := range granters {
					for _, mg := range og.live {
						if mg.remote == dd.ID {
							mg.maps = 0
						}
					}
				}
				for _, mm := range mappings {
					if mm.m.mapper == dd.ID {
						mm.counted = false
					}
				}
				mappers[1] = hv.CreateDomain(DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 1 << 20})
				continue
			}
			if err := hv.DestroyDomain(g.d.ID); err != nil {
				t.Fatal(err)
			}
			for _, mm := range mappings {
				if mm.owner == g {
					mm.counted = false
				}
			}
			kept := loans[:0]
			for _, l := range loans {
				if l.owner != g {
					kept = append(kept, l)
				} else if mg := g.live[l.ref]; mg != nil && mg.page == l.page && l.page.Lent() {
					t.Fatalf("step %d: the destroyed domain's granted page %d is still lent", step, l.page.ID)
				}
			}
			loans = kept
			granters[gi] = newModelGranter(t, hv, g.d.Name, gi == 1)
		}
		for _, g := range granters {
			checkGrantModel(t, step, g)
		}
	}
}

// checkGrantModel holds g's table to its model: every ref up to one past
// the highest issued resolves to the model's page, or to nil.
func checkGrantModel(t *testing.T, step int, g *modelGranter) {
	t.Helper()
	if g.d.LiveGrants() != len(g.live) {
		t.Fatalf("step %d: %s has %d live grants, model %d", step, g.d.Name, g.d.LiveGrants(), len(g.live))
	}
	for ref := range g.fresh + 1 {
		var want *mem.Page
		if mg := g.live[ref]; mg != nil {
			want = mg.page
		}
		if got := g.d.GrantedPage(ref); got != want {
			t.Fatalf("step %d: %s ref %d resolves to %v, model %v", step, g.d.Name, ref, got, want)
		}
	}
}

// TestMapCountBounded: a grant's map count is a 14-bit field, so the
// mapping that would overflow it is refused, as Xen refuses a pin count
// past its bound, and counts nothing; EndAccess refuses the grant until
// every mapping it has is undone.
func TestMapCountBounded(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	ref := du.GrantAccess(dom0.ID, du.Arena.MustAlloc(), true)
	ms := make([]*Mapping, 0, maxGrantMaps)
	for range maxGrantMaps {
		m, err := hv.MapGrant(dom0, du.ID, ref)
		if err != nil {
			t.Fatalf("map %d: %v", len(ms)+1, err)
		}
		ms = append(ms, m)
	}
	before := hv.Stats().GrantMaps
	if _, err := hv.MapGrant(dom0, du.ID, ref); err == nil {
		t.Fatalf("map %d of one grant was not refused", maxGrantMaps+1)
	}
	if hv.Stats().GrantMaps != before {
		t.Fatal("a refused map was counted")
	}
	for len(ms) > 0 {
		if err := du.EndAccess(ref); err == nil {
			t.Fatalf("EndAccess accepted a grant with %d mappings", len(ms))
		}
		if err := hv.UnmapGrant(dom0, ms[len(ms)-1]); err != nil {
			t.Fatal(err)
		}
		ms = ms[:len(ms)-1]
	}
	if err := du.EndAccess(ref); err != nil {
		t.Fatalf("EndAccess after every unmap: %v", err)
	}
}

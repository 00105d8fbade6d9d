package xen

import (
	"fmt"
	"slices"

	"kite/internal/mem"
	"kite/internal/sim"
)

// GrantRef names an entry in a domain's grant table.
type GrantRef uint32

// grantEntry is one grant-table slot, stored by value and indexed by ref.
// page is the granted page, nil in never-issued and revoked slots. Every
// use reaches the page through it without a lookup: a copy takes its bytes
// (Page.Bytes fills them at the first touch, so granting a page does not
// back it), a loan swaps the bytes behind it, a map hands it to the mapper.
//
// Every tenant's table holds an entry per ring page, so the entry is held
// to 16 B, which lands a 513-entry table and its allocation header in the
// 9,472 B size class: one pointer, a 32-bit count, the remote domain and
// one flag.
type grantEntry struct {
	page *mem.Page
	// mapCount counts a live entry's mappings. A revoked entry holds the
	// next revoked ref there instead (0 ends the list): the table's free
	// list threads through its dead entries, as Xen's gnttab_free_head does.
	mapCount int32
	remote   DomID
	readonly bool
}

// GrantedPage returns the page behind d's own live grant ref, nil if ref
// is not live. A frontend keeps only the refs of its persistently granted
// buffers and reaches their bytes through here: one entry serves both the
// frontend and the backend's copies.
func (d *Domain) GrantedPage(ref GrantRef) *mem.Page {
	if g := d.grant(ref); g != nil {
		return g.page
	}
	return nil
}

// GrantAccess publishes page to remote. Writing one's own grant table is
// not a hypercall, so no cost is charged here. The most recently revoked
// ref is issued first; a table with none revoked grows by one.
func (d *Domain) GrantAccess(remote DomID, page *mem.Page, readonly bool) GrantRef {
	if !d.Arena.Owns(page) {
		panic(fmt.Sprintf("xen: %s granting a page it does not own", d.Name))
	}
	ref := d.freeRef
	if ref != 0 {
		d.freeRef = GrantRef(d.grants[ref].mapCount)
	} else {
		ref = GrantRef(max(len(d.grants), 1)) // ref 0 is never issued
		for int(ref) >= len(d.grants) {
			d.grants = append(d.grants, grantEntry{}) //kite:alloc-ok grows past what a connect reserved and revocations freed
		}
	}
	d.grants[ref] = grantEntry{page: page, remote: remote, readonly: readonly}
	d.liveGrants++
	return ref
}

// ReserveGrants sizes the grant table for n more GrantAccess calls, so a
// caller that knows how many pages it is about to grant (a frontend's ring
// buffers at connect) pays one table allocation instead of append's
// doubling ladder and its doubled final capacity. Revoked refs are reused
// first, so only the rest need room.
func (d *Domain) ReserveGrants(n int) {
	size := max(len(d.grants), 1) // ref 0 is never issued
	revoked := size - 1 - d.liveGrants
	if grow := size + n - revoked - len(d.grants); grow > 0 {
		d.grants = slices.Grow(d.grants, grow)
	}
}

// EndAccess revokes a grant and puts its ref on the free list. It fails
// while a foreign mapping is still live, matching gnttab_end_foreign_access
// semantics.
func (d *Domain) EndAccess(ref GrantRef) error {
	g := d.grant(ref)
	if g == nil {
		return fmt.Errorf("xen: end access on unknown grant %d in %s", ref, d.Name)
	}
	if g.mapCount > 0 {
		return fmt.Errorf("xen: grant %d in %s still mapped %d times", ref, d.Name, g.mapCount)
	}
	*g = grantEntry{mapCount: int32(d.freeRef)}
	d.freeRef = ref
	d.liveGrants--
	return nil
}

// LendGrant lends b (PageSize bytes of the granting domain's own memory)
// to the page behind the live grant ref and returns the backing it
// displaced, which the caller keeps for EndLoan: every path to the granted
// page's bytes — Page.Bytes(), so every Mapping of it, and a grant copy —
// reaches b while the loan lasts and the page's own bytes after it. A
// frontend lends the final destination of a read to the page it grants
// for it, so the backend's device lands the data there and the frontend
// copies nothing. The grant's access mode is unchanged: lend only to a
// grant whose holder is meant to write b (or read it) for the loan's life.
func (d *Domain) LendGrant(ref GrantRef, b []byte) (own []byte) {
	g := d.grant(ref)
	if g == nil {
		panic(fmt.Sprintf("xen: %s lending to unknown grant %d", d.Name, ref))
	}
	return g.page.Lend(b)
}

// EndLoan ends a loan LendGrant made on ref, handing the page back own,
// the backing LendGrant returned; a grant with no loan, or one no longer
// live, is left as it is. It must run before the page goes back to a pool
// or an arena, and before the lender hands the loaned bytes on.
func (d *Domain) EndLoan(ref GrantRef, own []byte) {
	if g := d.grant(ref); g != nil {
		g.page.Restore(own)
	}
}

// LiveGrants returns the number of outstanding (unrevoked) grant entries.
func (d *Domain) LiveGrants() int { return d.liveGrants }

// Mapping is a foreign page mapped into a backend's address space. The
// backend reads and writes Page.Bytes() directly — the same aliasing a real
// mapping provides.
type Mapping struct {
	Page   *mem.Page
	owner  DomID
	ref    GrantRef
	mapper DomID
	live   bool
}

// MapGrant maps (owner, ref) into mapper's address space
// (GNTTABOP_map_grant_ref). Cost is charged to the mapper.
func (hv *Hypervisor) MapGrant(mapper *Domain, owner DomID, ref GrantRef) (*Mapping, error) {
	mapper.charge(hv.Costs.Base + hv.Costs.GrantMapPage)
	return hv.mapGrantCharged(mapper, owner, ref)
}

// MapGrantOn is MapGrant with the cost charged to a pinned vCPU, for
// callers running on a cluster shard. A pick from the domain's vCPU pool
// would be as exact from a shard (the cluster runs in one global order);
// the pinned charge stays because switching to the pool pick would move
// the model (see chargeOn).
func (hv *Hypervisor) MapGrantOn(mapper *Domain, cpu *sim.CPU, owner DomID, ref GrantRef) (*Mapping, error) {
	mapper.chargeOn(cpu, hv.Costs.Base+hv.Costs.GrantMapPage)
	return hv.mapGrantCharged(mapper, owner, ref)
}

func (hv *Hypervisor) mapGrantCharged(mapper *Domain, owner DomID, ref GrantRef) (*Mapping, error) {
	if mapper.dead {
		return nil, fmt.Errorf("xen: map grant by dead domain %d", mapper.ID)
	}
	od := hv.Domain(owner)
	if od == nil {
		return nil, fmt.Errorf("xen: map grant from dead domain %d", owner)
	}
	g := od.grant(ref)
	if g == nil {
		return nil, fmt.Errorf("xen: bad grant ref %d in domain %d", ref, owner)
	}
	if g.remote != mapper.ID {
		return nil, fmt.Errorf("xen: grant %d of domain %d is for domain %d, not %d",
			ref, owner, g.remote, mapper.ID)
	}
	hv.stats.GrantMaps++
	g.mapCount++
	return &Mapping{Page: g.page, owner: owner, ref: ref, mapper: mapper.ID, live: true}, nil //kite:alloc-ok callers cache mappings; misses are warmup-only
}

// UnmapGrant releases a mapping (GNTTABOP_unmap_grant_ref).
func (hv *Hypervisor) UnmapGrant(mapper *Domain, m *Mapping) error {
	mapper.charge(hv.Costs.Base + hv.Costs.GrantUnmapPage)
	return hv.unmapLocked(m)
}

// UnmapGrantBatch unmaps several mappings, charging the base cost once.
func (hv *Hypervisor) UnmapGrantBatch(mapper *Domain, ms []*Mapping) error {
	if len(ms) == 0 {
		return nil
	}
	mapper.charge(hv.Costs.Base + sim.Time(len(ms))*hv.Costs.GrantUnmapPage)
	for _, m := range ms {
		if err := hv.unmapLocked(m); err != nil {
			return err
		}
	}
	return nil
}

func (hv *Hypervisor) unmapLocked(m *Mapping) error {
	if !m.live {
		return fmt.Errorf("xen: unmap of dead mapping (ref %d)", m.ref)
	}
	m.live = false
	hv.stats.GrantUnmaps++
	// A dead mapper's mappings were released at its death: the count is
	// already down by its share, and the owner may since have revoked the
	// ref and issued it again. A live mapper's mapping keeps its grant
	// live, unless the owner died.
	if md := hv.domainAt(m.mapper); md.dead {
		return nil
	}
	if od := hv.domainAt(m.owner); od != nil {
		if g := od.grant(m.ref); g != nil {
			g.mapCount--
		}
	}
	return nil
}

// Live reports whether the mapping is still valid.
func (m *Mapping) Live() bool { return m.live }

// Ref returns the grant reference this mapping came from.
func (m *Mapping) Ref() GrantRef { return m.ref }

// CopyPtr addresses one side of a grant copy: a foreign (Dom, Ref) pair, a
// local page, or a local raw buffer (Data). The raw-buffer form lets
// backends copy straight between grants and pooled frame buffers without
// staging through scratch pages; it models the same virtual-address side a
// real GNTTABOP_copy accepts.
type CopyPtr struct {
	Dom    DomID
	Ref    GrantRef
	Local  *mem.Page // non-nil for a local page side
	Data   []byte    // non-nil for a local raw-buffer side (takes precedence)
	Offset int
}

// CopyStatus is one copy op's outcome, GNTTABOP_copy's per-op status field
// with Xen's GNTST_* values.
type CopyStatus int16

const (
	CopyOkay      CopyStatus = 0   // GNTST_okay
	CopyBadDomain CopyStatus = -2  // GNTST_bad_domain: the domain is gone
	CopyBadRef    CopyStatus = -3  // GNTST_bad_gntref: no such grant
	CopyDenied    CopyStatus = -8  // GNTST_permission_denied: granted elsewhere, or read-only
	CopyBadArg    CopyStatus = -10 // GNTST_bad_copy_arg: the length leaves a side
)

func (s CopyStatus) String() string {
	switch s {
	case CopyOkay:
		return "okay"
	case CopyBadDomain:
		return "bad domain"
	case CopyBadRef:
		return "bad grant ref"
	case CopyDenied:
		return "permission denied"
	case CopyBadArg:
		return "copy overflows a buffer"
	}
	return fmt.Sprintf("status %d", int16(s))
}

// CopyOp is one GNTTABOP_copy operation; Len must fit within both sides.
// The copy writes Status, as Xen does: a failed op copies nothing and the
// batch carries on past it.
type CopyOp struct {
	Src, Dst CopyPtr
	Len      int
	Status   CopyStatus
}

// CopyGrant performs a batch of hypervisor-side copies on behalf of caller
// (GNTTABOP_copy). This is the fast data path used by netback/netfront.
// The base hypercall cost is charged once per batch; each op adds a fixed
// per-op cost plus a byte-proportional memcpy cost. Every op gets its own
// Status; the error reports the first failed op, nil when all succeeded.
func (hv *Hypervisor) CopyGrant(caller *Domain, ops []CopyOp) error {
	if len(ops) == 0 {
		return nil
	}
	caller.charge(hv.copyCost(ops))
	return hv.copyCharged(caller, ops)
}

// CopyGrantOn is CopyGrant with the cost charged to a pinned vCPU — the
// per-queue form used by backends running on cluster shards.
func (hv *Hypervisor) CopyGrantOn(caller *Domain, cpu *sim.CPU, ops []CopyOp) error {
	if len(ops) == 0 {
		return nil
	}
	caller.chargeOn(cpu, hv.copyCost(ops))
	return hv.copyCharged(caller, ops)
}

func (hv *Hypervisor) copyCost(ops []CopyOp) sim.Time {
	cost := hv.Costs.Base
	for _, op := range ops {
		cost += hv.Costs.GrantCopyPage + sim.Time(op.Len)*hv.Costs.CopyBytePerKB/1024
	}
	return cost
}

func (hv *Hypervisor) copyCharged(caller *Domain, ops []CopyOp) error {
	failed := -1
	for i := range ops {
		op := &ops[i]
		if op.Status = hv.copyOne(caller, op); op.Status != CopyOkay && failed < 0 {
			failed = i
		}
	}
	if failed >= 0 {
		return fmt.Errorf("xen: copy op %d of %d: %v", failed, len(ops), ops[failed].Status)
	}
	return nil
}

// copyOne performs one op and returns its status.
func (hv *Hypervisor) copyOne(caller *Domain, op *CopyOp) CopyStatus {
	src, st := hv.resolveCopyPtr(caller, op.Src, false)
	if st != CopyOkay {
		return st
	}
	dst, st := hv.resolveCopyPtr(caller, op.Dst, true)
	if st != CopyOkay {
		return st
	}
	if op.Len < 0 || op.Src.Offset+op.Len > len(src) || op.Dst.Offset+op.Len > len(dst) {
		return CopyBadArg
	}
	copy(dst[op.Dst.Offset:op.Dst.Offset+op.Len], src[op.Src.Offset:op.Src.Offset+op.Len])
	hv.stats.GrantCopies++
	hv.stats.CopiedBytes += uint64(op.Len)
	return CopyOkay
}

func (hv *Hypervisor) resolveCopyPtr(caller *Domain, p CopyPtr, write bool) ([]byte, CopyStatus) {
	if p.Data != nil {
		return p.Data, CopyOkay
	}
	if p.Local != nil {
		return p.Local.Bytes(), CopyOkay
	}
	od := hv.Domain(p.Dom)
	if od == nil {
		return nil, CopyBadDomain
	}
	g := od.grant(p.Ref)
	if g == nil {
		return nil, CopyBadRef
	}
	if g.remote != caller.ID || (write && g.readonly) {
		return nil, CopyDenied
	}
	return g.page.Bytes(), CopyOkay
}

package xen

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"kite/internal/mem"
	"kite/internal/sim"
)

func newHV(t *testing.T) (*sim.Engine, *Hypervisor, *Domain) {
	t.Helper()
	eng := sim.NewEngine()
	hv := New(eng)
	dom0 := hv.CreateDomain(DomainConfig{Name: "dom0", VCPUs: 2, MemBytes: 8 << 20, Privileged: true})
	if dom0.ID != 0 {
		t.Fatalf("first domain got ID %d, want 0", dom0.ID)
	}
	return eng, hv, dom0
}

func TestFirstDomainMustBePrivileged(t *testing.T) {
	eng := sim.NewEngine()
	hv := New(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("unprivileged first domain did not panic")
		}
	}()
	hv.CreateDomain(DomainConfig{Name: "bad", VCPUs: 1, MemBytes: 1 << 20})
}

func TestDomainLookupAndDestroy(t *testing.T) {
	_, hv, _ := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	if hv.Domain(du.ID) != du {
		t.Fatal("lookup failed")
	}
	destroyed := false
	du.OnDestroy = func() { destroyed = true }
	if err := hv.DestroyDomain(du.ID); err != nil {
		t.Fatal(err)
	}
	if hv.Domain(du.ID) != nil {
		t.Fatal("destroyed domain still visible")
	}
	if !destroyed {
		t.Fatal("OnDestroy hook did not run")
	}
	if err := hv.DestroyDomain(du.ID); err == nil {
		t.Fatal("double destroy succeeded")
	}
}

func TestDom0Indestructible(t *testing.T) {
	_, hv, _ := newHV(t)
	if err := hv.DestroyDomain(0); err == nil {
		t.Fatal("Dom0 destroy succeeded")
	}
}

func TestPCIAssignment(t *testing.T) {
	_, hv, _ := newHV(t)
	dd := hv.CreateDomain(DomainConfig{Name: "netdd", VCPUs: 1, MemBytes: 1 << 20})
	if err := hv.AssignPCI("03:00.0", dd.ID); err != nil {
		t.Fatal(err)
	}
	if err := hv.AssignPCI("03:00.0", 0); err == nil {
		t.Fatal("double PCI assignment succeeded")
	}
	if owner, ok := hv.PCIOwner("03:00.0"); !ok || owner != dd.ID {
		t.Fatalf("PCI owner = %d,%v", owner, ok)
	}
	// Destroying the domain releases its devices.
	if err := hv.DestroyDomain(dd.ID); err != nil {
		t.Fatal(err)
	}
	if _, ok := hv.PCIOwner("03:00.0"); ok {
		t.Fatal("device still assigned after domain destroy")
	}
}

func TestEventChannelHandshakeAndDelivery(t *testing.T) {
	eng, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20,
		IRQLatency: 3 * sim.Microsecond})

	unbound := du.AllocUnbound(dom0.ID)
	lport, err := dom0.BindInterdomain(du.ID, unbound)
	if err != nil {
		t.Fatal(err)
	}
	var deliveredAt sim.Time = -1
	if err := du.SetHandler(unbound, func() { deliveredAt = eng.Now() }); err != nil {
		t.Fatal(err)
	}
	dom0.Notify(lport)
	eng.Run()
	if deliveredAt < 3*sim.Microsecond {
		t.Fatalf("delivery at %v, want >= IRQ latency 3us", deliveredAt)
	}
	sends, _ := dom0.ChannelStats(lport)
	_, got := du.ChannelStats(unbound)
	if sends != 1 || got != 1 {
		t.Fatalf("sends=%d delivered=%d, want 1/1", sends, got)
	}
}

func TestEventChannelBindValidation(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	other := hv.CreateDomain(DomainConfig{Name: "other", VCPUs: 1, MemBytes: 1 << 20})

	unbound := du.AllocUnbound(dom0.ID)
	if _, err := other.BindInterdomain(du.ID, unbound); err == nil {
		t.Fatal("bind by wrong domain succeeded")
	}
	if _, err := dom0.BindInterdomain(du.ID, 999); err == nil {
		t.Fatal("bind to unknown port succeeded")
	}
	if _, err := dom0.BindInterdomain(du.ID, unbound); err != nil {
		t.Fatal(err)
	}
	// Port now connected; a second bind must fail.
	if _, err := dom0.BindInterdomain(du.ID, unbound); err == nil {
		t.Fatal("double bind succeeded")
	}
}

func TestEventCoalescing(t *testing.T) {
	eng, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20,
		IRQLatency: 10 * sim.Microsecond})
	unbound := du.AllocUnbound(dom0.ID)
	lport, _ := dom0.BindInterdomain(du.ID, unbound)
	count := 0
	du.SetHandler(unbound, func() { count++ })
	for i := 0; i < 5; i++ {
		dom0.Notify(lport) // all before the first upcall runs
	}
	eng.Run()
	if count != 1 {
		t.Fatalf("5 back-to-back notifies delivered %d upcalls, want 1 (coalesced)", count)
	}
}

func TestNotifyAfterPeerDestroyIsNoop(t *testing.T) {
	eng, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	unbound := du.AllocUnbound(dom0.ID)
	lport, _ := dom0.BindInterdomain(du.ID, unbound)
	du.SetHandler(unbound, func() { t.Fatal("handler ran in destroyed domain") })
	hv.DestroyDomain(du.ID)
	dom0.Notify(lport) // must not panic, must not deliver
	eng.Run()
}

// TestDeadDomainNotifyIsNoop: work a driver domain scheduled before it died
// still runs, and its notifies land on ports its death closed; they return
// without charging or counting anything, and deliver nothing.
func TestDeadDomainNotifyIsNoop(t *testing.T) {
	eng, hv, dom0 := newHV(t)
	dd := hv.CreateDomain(DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 1 << 20})
	unbound := dom0.AllocUnbound(dd.ID)
	lport, err := dd.BindInterdomain(dom0.ID, unbound)
	if err != nil {
		t.Fatal(err)
	}
	dom0.SetHandler(unbound, func() { t.Fatal("a dead domain's notify was delivered") })
	if err := hv.DestroyDomain(dd.ID); err != nil {
		t.Fatal(err)
	}
	before := hv.Stats()
	dd.Notify(lport) // the port died with the domain: no panic
	eng.Run()
	if hv.Stats() != before {
		t.Fatalf("a dead domain's notify moved the hypercall counters: %+v -> %+v", before, hv.Stats())
	}
}

// TestDeadDomainDoorbell: a doorbell does not load the domain to learn it
// died — DestroyDomain closes every port, and a closed channel runs
// nothing. An upcall already scheduled when the domain dies, and a peer's
// notify after, run no handler: on a pinned port and on a demux member.
func TestDeadDomainDoorbell(t *testing.T) {
	for _, demux := range []bool{false, true} {
		eng, hv, dom0 := newHV(t)
		du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20,
			IRQLatency: 5 * sim.Microsecond})
		port := du.AllocUnbound(dom0.ID)
		peer, err := dom0.BindInterdomain(du.ID, port)
		if err != nil {
			t.Fatal(err)
		}
		ran := 0
		du.SetHandler(port, func() { ran++ })
		if demux {
			if err := du.NewDemux(du.CPUs.CPU(0), 0).Join(port); err != nil {
				t.Fatal(err)
			}
		} else if err := du.BindPortCPU(port, du.CPUs.CPU(0)); err != nil {
			t.Fatal(err)
		}
		dom0.Notify(peer) // the upcall (or scan) is now scheduled
		if err := hv.DestroyDomain(du.ID); err != nil {
			t.Fatal(err)
		}
		dom0.Notify(peer)
		eng.Run()
		if ran != 0 {
			t.Fatalf("demux=%v: a dead domain's handler ran %d times", demux, ran)
		}
		if _, err := du.BindInterdomain(dom0.ID, dom0.AllocUnbound(du.ID)); err == nil {
			t.Fatalf("demux=%v: a dead domain bound a new channel", demux)
		}
	}
}

// TestDestroyReleasesMappings: a driver domain that dies holding mappings
// of a guest's grants lets go of them (gnttab_release_mappings), so the
// guest can end those grants; a late unmap of one, or a map attempted by
// the dead domain's leftover work, changes nothing.
func TestDestroyReleasesMappings(t *testing.T) {
	_, hv, _ := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	dd := hv.CreateDomain(DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 1 << 20})
	refs := []GrantRef{
		du.GrantAccess(dd.ID, du.Arena.MustAlloc(), false),
		du.GrantAccess(dd.ID, du.Arena.MustAlloc(), false),
	}
	var ms []*Mapping
	for _, ref := range refs {
		m, err := hv.MapGrant(dd, du.ID, ref)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	if err := du.EndAccess(refs[0]); err == nil {
		t.Fatal("EndAccess succeeded while mapped")
	}
	if err := hv.DestroyDomain(dd.ID); err != nil {
		t.Fatal(err)
	}
	if err := hv.UnmapGrant(dd, ms[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := hv.MapGrant(dd, du.ID, refs[0]); err == nil {
		t.Fatal("a dead domain mapped a grant")
	}
	for _, ref := range refs {
		if err := du.EndAccess(ref); err != nil {
			t.Fatalf("grant %d after its mapper died: %v", ref, err)
		}
	}
	if n := du.LiveGrants(); n != 0 {
		t.Fatalf("%d grants live after ending both", n)
	}
}

func TestCloseUnknownPortErrors(t *testing.T) {
	_, _, dom0 := newHV(t)
	if err := dom0.Close(42); err == nil {
		t.Fatal("close of unknown port succeeded")
	}
}

func TestGrantMapReadAndUnmap(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	page := du.Arena.MustAlloc()
	page.CopyInto(0, []byte("shared"))
	ref := du.GrantAccess(dom0.ID, page, false)

	m, err := hv.MapGrant(dom0, du.ID, ref)
	if err != nil {
		t.Fatal(err)
	}
	if string(m.Page.CopyFrom(0, 6)) != "shared" {
		t.Fatal("mapped page content mismatch")
	}
	// Writes through the mapping land in the owner's page.
	m.Page.CopyInto(0, []byte("BACKND"))
	if string(page.CopyFrom(0, 6)) != "BACKND" {
		t.Fatal("write through mapping not visible to owner")
	}
	// EndAccess must fail while mapped.
	if err := du.EndAccess(ref); err == nil {
		t.Fatal("EndAccess succeeded while mapped")
	}
	if err := hv.UnmapGrant(dom0, m); err != nil {
		t.Fatal(err)
	}
	if err := du.EndAccess(ref); err != nil {
		t.Fatal(err)
	}
	if err := hv.UnmapGrant(dom0, m); err == nil {
		t.Fatal("double unmap succeeded")
	}
}

func TestGrantTargetsWrongDomain(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	dd := hv.CreateDomain(DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 1 << 20})
	page := du.Arena.MustAlloc()
	ref := du.GrantAccess(dd.ID, page, false) // granted to dd, not dom0
	if _, err := hv.MapGrant(dom0, du.ID, ref); err == nil {
		t.Fatal("map by non-target domain succeeded")
	}
}

func TestGrantCopyMovesBytes(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	src := du.Arena.MustAlloc()
	src.CopyInto(128, []byte("payload-bytes"))
	ref := du.GrantAccess(dom0.ID, src, true)
	dst := dom0.Arena.MustAlloc()

	err := hv.CopyGrant(dom0, []CopyOp{{
		Src: CopyPtr{Dom: du.ID, Ref: ref, Offset: 128},
		Dst: CopyPtr{Local: dst, Offset: 0},
		Len: 13,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if string(dst.CopyFrom(0, 13)) != "payload-bytes" {
		t.Fatal("grant copy corrupted data")
	}
	st := hv.Stats()
	if st.GrantCopies != 1 || st.CopiedBytes != 13 {
		t.Fatalf("stats copies=%d bytes=%d", st.GrantCopies, st.CopiedBytes)
	}
}

func TestGrantCopyHonorsReadOnly(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	target := du.Arena.MustAlloc()
	ref := du.GrantAccess(dom0.ID, target, true) // read-only
	src := dom0.Arena.MustAlloc()
	err := hv.CopyGrant(dom0, []CopyOp{{
		Src: CopyPtr{Local: src},
		Dst: CopyPtr{Dom: du.ID, Ref: ref},
		Len: 16,
	}})
	if err == nil {
		t.Fatal("write through read-only grant succeeded")
	}
}

func TestGrantCopyBoundsChecked(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	src := du.Arena.MustAlloc()
	ref := du.GrantAccess(dom0.ID, src, true)
	dst := dom0.Arena.MustAlloc()
	err := hv.CopyGrant(dom0, []CopyOp{{
		Src: CopyPtr{Dom: du.ID, Ref: ref, Offset: 4000},
		Dst: CopyPtr{Local: dst},
		Len: 200,
	}})
	if err == nil {
		t.Fatal("page-overflowing copy succeeded")
	}
}

// A failed op fails alone, as GNTTABOP_copy's per-op status has it: every
// op gets its own status, the ops on both sides of a bad one are copied, and
// the error names the first failure.
func TestGrantCopyStatusPerOp(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	page := du.Arena.MustAlloc()
	page.CopyInto(0, []byte("abcdefgh"))
	ref := du.GrantAccess(dom0.ID, page, true)
	foreign := du.GrantAccess(du.ID+1, page, true)
	dst := make([][]byte, 6)
	ops := make([]CopyOp, len(dst))
	for i := range ops {
		dst[i] = make([]byte, 4)
		ops[i] = CopyOp{Src: CopyPtr{Dom: du.ID, Ref: ref, Offset: i}, Dst: CopyPtr{Data: dst[i]}, Len: 4}
	}
	ops[1].Src.Ref = 0xbad
	ops[2].Src.Dom = du.ID + 7
	ops[3].Src.Ref = foreign
	ops[4].Len = 5
	err := hv.CopyGrant(dom0, ops)
	if err == nil {
		t.Fatal("a batch with four bad ops reported no error")
	}
	want := []CopyStatus{CopyOkay, CopyBadRef, CopyBadDomain, CopyDenied, CopyBadArg, CopyOkay}
	for i, op := range ops {
		if op.Status != want[i] {
			t.Errorf("op %d: status %v, want %v", i, op.Status, want[i])
		}
	}
	if string(dst[0]) != "abcd" || string(dst[5]) != "fgh\x00" {
		t.Errorf("the good ops copied %q and %q", dst[0], dst[5])
	}
	if st := hv.Stats(); st.GrantCopies != 2 || st.CopiedBytes != 8 {
		t.Errorf("stats copies=%d bytes=%d, want 2 and 8", st.GrantCopies, st.CopiedBytes)
	}
}

func TestHypercallsChargeCPU(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	page := du.Arena.MustAlloc()
	ref := du.GrantAccess(dom0.ID, page, false)
	before := dom0.CPUs.CPU(0).BusyTotal() + dom0.CPUs.CPU(1).BusyTotal()
	m, err := hv.MapGrant(dom0, du.ID, ref)
	if err != nil {
		t.Fatal(err)
	}
	hv.UnmapGrant(dom0, m)
	after := dom0.CPUs.CPU(0).BusyTotal() + dom0.CPUs.CPU(1).BusyTotal()
	want := 2*hv.Costs.Base + hv.Costs.GrantMapPage + hv.Costs.GrantUnmapPage
	if after-before != want {
		t.Fatalf("map+unmap charged %v, want %v", after-before, want)
	}
}

func TestBatchedCopyCheaperThanSingles(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	mkops := func(n int) []CopyOp {
		ops := make([]CopyOp, n)
		for i := range ops {
			p := du.Arena.MustAlloc()
			ref := du.GrantAccess(dom0.ID, p, true)
			ops[i] = CopyOp{Src: CopyPtr{Dom: du.ID, Ref: ref}, Dst: CopyPtr{Local: dom0.Arena.MustAlloc()}, Len: 512}
		}
		return ops
	}
	base := dom0.CPUs.CPU(0).BusyTotal() + dom0.CPUs.CPU(1).BusyTotal()
	if err := hv.CopyGrant(dom0, mkops(8)); err != nil {
		t.Fatal(err)
	}
	batched := dom0.CPUs.CPU(0).BusyTotal() + dom0.CPUs.CPU(1).BusyTotal() - base

	base = dom0.CPUs.CPU(0).BusyTotal() + dom0.CPUs.CPU(1).BusyTotal()
	for _, op := range mkops(8) {
		if err := hv.CopyGrant(dom0, []CopyOp{op}); err != nil {
			t.Fatal(err)
		}
	}
	singles := dom0.CPUs.CPU(0).BusyTotal() + dom0.CPUs.CPU(1).BusyTotal() - base
	if batched >= singles {
		t.Fatalf("batched copy (%v) not cheaper than singles (%v)", batched, singles)
	}
}

func TestDestroyRevokesGrants(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	page := du.Arena.MustAlloc()
	ref := du.GrantAccess(dom0.ID, page, false)
	hv.DestroyDomain(du.ID)
	if _, err := hv.MapGrant(dom0, du.ID, ref); err == nil {
		t.Fatal("mapping a destroyed domain's grant succeeded")
	}
}

// TestFlatGrantTableRefusals pins every refusal the pointer-per-entry table
// made, now that entries live by value: a slot's zero value must read as
// "no such grant" (never-issued and revoked refs alike), and the checks
// resolveCopyPtr and the map path share — granted to the caller, writable —
// must hold through both. A table with holes is the point: refs 1..4 are
// issued around the ones under test so index arithmetic is exercised.
func TestFlatGrantTableRefusals(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	dd := hv.CreateDomain(DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 1 << 20})
	grant := func(to DomID, readonly bool) GrantRef {
		return du.GrantAccess(to, du.Arena.MustAlloc(), readonly)
	}
	good := grant(dom0.ID, false)
	revoked := grant(dom0.ID, false)
	foreign := grant(dd.ID, false) // granted to dd, not the caller
	readonly := grant(dom0.ID, true)
	never := readonly + 1 // inside no table yet
	if err := du.EndAccess(revoked); err != nil {
		t.Fatal(err)
	}
	if err := du.EndAccess(revoked); err == nil {
		t.Error("second EndAccess of one ref succeeded")
	}
	if n := du.LiveGrants(); n != 3 {
		t.Errorf("LiveGrants = %d after one revoke of four, want 3", n)
	}

	local := dom0.Arena.MustAlloc()
	read := func(ref GrantRef) error {
		return hv.CopyGrant(dom0, []CopyOp{{Src: CopyPtr{Dom: du.ID, Ref: ref}, Dst: CopyPtr{Local: local}, Len: 8}})
	}
	write := func(ref GrantRef) error {
		return hv.CopyGrant(dom0, []CopyOp{{Src: CopyPtr{Local: local}, Dst: CopyPtr{Dom: du.ID, Ref: ref}, Len: 8}})
	}
	if err := read(good); err != nil {
		t.Fatalf("read through a good grant: %v", err)
	}
	if err := write(good); err != nil {
		t.Fatalf("write through a good grant: %v", err)
	}
	if err := read(readonly); err != nil {
		t.Fatalf("read through a read-only grant: %v", err)
	}
	if err := write(readonly); err == nil {
		t.Error("CopyGrant wrote through a read-only grant")
	}
	for name, ref := range map[string]GrantRef{"revoked": revoked, "never issued": never, "ref 0": 0, "granted to another domain": foreign} {
		if err := read(ref); err == nil {
			t.Errorf("CopyGrant read through a %s ref", name)
		}
		if err := write(ref); err == nil {
			t.Errorf("CopyGrant wrote through a %s ref", name)
		}
		if _, err := hv.MapGrant(dom0, du.ID, ref); err == nil {
			t.Errorf("MapGrant mapped a %s ref", name)
		}
	}

	// A revoked slot is the next one issued, and reissued it carries the
	// new grant's remote and mode, not the old one's; the table grows only
	// once no revoked slot is left.
	later := grant(dd.ID, true)
	if later != revoked {
		t.Fatalf("GrantAccess issued ref %d, want the revoked ref %d", later, revoked)
	}
	if err := read(later); err == nil {
		t.Error("reissued ref readable by the domain it was granted to before")
	}
	if fresh := grant(dom0.ID, false); fresh != never {
		t.Errorf("GrantAccess with no revoked slot issued ref %d, want %d", fresh, never)
	}

	// Mapped entries count their mappings in place: EndAccess refuses until
	// the last one is gone (the failed batches above rolled theirs back).
	m1, err := hv.MapGrant(dom0, du.ID, good)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := hv.MapGrant(dom0, du.ID, good)
	if err != nil {
		t.Fatal(err)
	}
	grant(dom0.ID, false) // table growth must not lose the map count
	if err := hv.UnmapGrant(dom0, m1); err != nil {
		t.Fatal(err)
	}
	if err := du.EndAccess(good); err == nil {
		t.Fatal("EndAccess succeeded with one mapping still live")
	}
	if err := hv.UnmapGrant(dom0, m2); err != nil {
		t.Fatal(err)
	}
	if err := du.EndAccess(good); err != nil {
		t.Fatalf("EndAccess after the last unmap: %v", err)
	}
	if err := read(good); err == nil {
		t.Error("CopyGrant read through a ref revoked after unmapping")
	}
}

// TestGrantDoesNotBackPage: granting a page does not touch it. The first
// copy a grant admits backs the page and delivers the bytes; a copy the
// grant refuses — wrong caller, write through read-only — backs nothing.
func TestGrantDoesNotBackPage(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	dd := hv.CreateDomain(DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 1 << 20})
	pages, err := du.Arena.AllocN(4)
	if err != nil {
		t.Fatal(err)
	}
	writable := du.GrantAccess(dom0.ID, pages[0], false)
	readonly := du.GrantAccess(dom0.ID, pages[1], true)
	foreign := du.GrantAccess(dd.ID, pages[2], false)
	du.GrantAccess(dom0.ID, pages[3], false) // granted, never copied
	if n := du.Arena.Backed(); n != 0 {
		t.Fatalf("Backed after four grants = %d, want 0", n)
	}
	payload := []byte("first touch")
	write := func(ref GrantRef) error {
		return hv.CopyGrant(dom0, []CopyOp{{Src: CopyPtr{Data: payload}, Dst: CopyPtr{Dom: du.ID, Ref: ref, Offset: 64}, Len: len(payload)}})
	}
	if err := write(readonly); err == nil {
		t.Error("CopyGrant wrote through a read-only grant")
	}
	if err := write(foreign); err == nil {
		t.Error("CopyGrant wrote through a grant to another domain")
	}
	got := make([]byte, len(payload))
	if err := hv.CopyGrant(dom0, []CopyOp{{Src: CopyPtr{Dom: du.ID, Ref: foreign}, Dst: CopyPtr{Data: got}, Len: len(got)}}); err == nil {
		t.Error("CopyGrant read through a grant to another domain")
	}
	if n := du.Arena.Backed(); n != 0 {
		t.Fatalf("Backed after three refused copies = %d, want 0", n)
	}
	if err := write(writable); err != nil {
		t.Fatal(err)
	}
	if n := du.Arena.Backed(); n != 1 {
		t.Fatalf("Backed after one admitted copy = %d, want 1", n)
	}
	if string(pages[0].CopyFrom(64, len(payload))) != string(payload) {
		t.Fatal("copy into a never-touched granted page lost the bytes")
	}
	// The entry now aliases the page: a second copy lands in the same bytes.
	if err := hv.CopyGrant(dom0, []CopyOp{{Src: CopyPtr{Dom: du.ID, Ref: writable, Offset: 64}, Dst: CopyPtr{Data: got}, Len: len(got)}}); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) || du.Arena.Backed() != 1 {
		t.Fatalf("read back %q, Backed %d", got, du.Arena.Backed())
	}
}

// TestDestroyReleasesPages: a destroyed domain's memory goes back to the
// host. Tenants come and go 64 times, each touching 1 MiB; the heap must
// not keep it (the dead *Domain stays in the hypervisor's table, its pages
// must not). A mapping the backend still holds keeps its one page usable,
// and a Free that arrives after the destroy is harmless.
func TestDestroyReleasesPages(t *testing.T) {
	_, hv, dom0 := newHV(t)
	const pagesPer = 256
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var dead []*Domain
	var held []*Mapping
	var early uint64
	for cycle := 0; cycle < 64; cycle++ {
		du := hv.CreateDomain(DomainConfig{Name: "tenant", VCPUs: 1, MemBytes: pagesPer * mem.PageSize})
		pages, err := du.Arena.AllocN(pagesPer)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pages {
			ref := du.GrantAccess(dom0.ID, p, false)
			err := hv.CopyGrant(dom0, []CopyOp{{Src: CopyPtr{Data: []byte{byte(cycle)}}, Dst: CopyPtr{Dom: du.ID, Ref: ref}, Len: 1}})
			if err != nil {
				t.Fatal(err)
			}
		}
		m, err := hv.MapGrant(dom0, du.ID, GrantRef(1))
		if err != nil {
			t.Fatal(err)
		}
		if n := du.Arena.Backed(); n != pagesPer {
			t.Fatalf("cycle %d: Backed = %d before destroy, want %d", cycle, n, pagesPer)
		}
		if err := hv.DestroyDomain(du.ID); err != nil {
			t.Fatal(err)
		}
		if du.Arena.Lookup(pages[0].ID) != nil {
			t.Fatalf("cycle %d: Lookup on a destroyed domain's arena returned a page", cycle)
		}
		du.Arena.Free(pages[pagesPer-1]) // late: a backend finishing up
		dead, held = append(dead, du), append(held, m)
		if cycle == 7 {
			early = heapInuse()
		}
	}
	for i, m := range held {
		if got := m.Page.CopyFrom(0, 1)[0]; got != byte(i) {
			t.Fatalf("mapping held across destroy %d reads %d, want %d", i, got, i)
		}
		if err := hv.UnmapGrant(dom0, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range dead {
		if n := d.Arena.Backed(); n != 0 {
			t.Fatalf("dead domain %d: Backed = %d, want 0", i, n)
		}
	}
	// 56 more tenants came and went since the early reading; pinned, they
	// would be 56 MiB. What legitimately grew is 56 tombstones and held
	// mappings, a page each.
	if late := heapInuse(); late > early+4<<20 {
		t.Fatalf("HeapInuse grew %d KiB over 56 create/destroy cycles, want flat", (late-early)>>10)
	}
}

// TestReserveGrantsSizesTableOnce: after ReserveGrants(n) the next n grants
// land in the reserved table — no reallocation, no doubled capacity — and a
// second reservation on a part-filled table counts from the next free ref.
func TestReserveGrantsSizesTableOnce(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 8 << 20})
	const n = 512
	pages, err := du.Arena.AllocN(2 * n)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		du.ReserveGrants(n)
		reserved := cap(du.grants)
		if want := (round+1)*n + 1; reserved < want || reserved >= 2*want {
			t.Fatalf("round %d: cap %d after reserving up to ref %d", round, reserved, want-1)
		}
		for _, p := range pages[round*n : (round+1)*n] {
			du.GrantAccess(dom0.ID, p, false)
		}
		if cap(du.grants) != reserved {
			t.Fatalf("round %d: table reallocated (%d -> %d) inside its reservation", round, reserved, cap(du.grants))
		}
	}
	if du.LiveGrants() != 2*n {
		t.Fatalf("LiveGrants = %d, want %d", du.LiveGrants(), 2*n)
	}
}

// TestLendGrant: while a grant's page is lent, every path to its bytes —
// Page.Bytes(), a Mapping taken before the loan, a grant copy either way —
// reaches the loan; after it, the page's own bytes. A grant copy made
// before the loan leaves no cached view that outlives the swap.
func TestLendGrant(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	page := du.Arena.MustAlloc()
	page.CopyInto(0, []byte("own"))
	ref := du.GrantAccess(dom0.ID, page, false)
	m, err := hv.MapGrant(dom0, du.ID, ref)
	if err != nil {
		t.Fatal(err)
	}
	copyIn := func(s string) {
		t.Helper()
		if err := hv.CopyGrant(dom0, []CopyOp{{Src: CopyPtr{Data: []byte(s)}, Dst: CopyPtr{Dom: du.ID, Ref: ref}, Len: len(s)}}); err != nil {
			t.Fatal(err)
		}
	}
	copyOut := func() string {
		t.Helper()
		got := make([]byte, 3)
		if err := hv.CopyGrant(dom0, []CopyOp{{Src: CopyPtr{Dom: du.ID, Ref: ref}, Dst: CopyPtr{Data: got}, Len: 3}}); err != nil {
			t.Fatal(err)
		}
		return string(got)
	}
	if copyOut() != "own" { // caches the entry's view of the page's own bytes
		t.Fatal("grant copy before the loan")
	}

	loan := make([]byte, mem.PageSize)
	copy(loan, "lnt")
	own := du.LendGrant(ref, loan)
	if string(page.Bytes()[:3]) != "lnt" || string(m.Page.Bytes()[:3]) != "lnt" || copyOut() != "lnt" {
		t.Fatal("during the loan, Bytes, the mapping or a grant copy misses the loan")
	}
	m.Page.CopyInto(0, []byte("map"))
	if string(loan[:3]) != "map" || copyOut() != "map" {
		t.Fatal("a write through the mapping did not land in the loan")
	}
	copyIn("cpy")
	if string(loan[:3]) != "cpy" {
		t.Fatal("a grant copy into the lent page did not land in the loan")
	}

	du.EndLoan(ref, own)
	if string(page.Bytes()[:3]) != "own" || string(m.Page.Bytes()[:3]) != "own" || copyOut() != "own" {
		t.Fatal("after the loan, Bytes, the mapping or a grant copy does not see the page's own bytes")
	}
	m.Page.CopyInto(0, []byte("MAP"))
	copyIn("CPY")
	if string(loan[:3]) != "cpy" {
		t.Fatalf("after the loan, a write through the mapping or a grant copy reached the loan: %q", loan[:3])
	}
	du.EndLoan(ref, nil) // no loan: nothing to do
	if string(page.Bytes()[:3]) != "CPY" {
		t.Fatalf("page reads %q, want the last grant copy", page.Bytes()[:3])
	}
}

// TestDestroyEndsLoans: a backend mapping that outlives the granting
// domain reaches a zeroed page, not a loan the domain never ended (the
// page's own backing died with the lender that held it).
func TestDestroyEndsLoans(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	page := du.Arena.MustAlloc()
	ref := du.GrantAccess(dom0.ID, page, false)
	m, err := hv.MapGrant(dom0, du.ID, ref)
	if err != nil {
		t.Fatal(err)
	}
	loan := make([]byte, mem.PageSize)
	du.LendGrant(ref, loan)
	if err := hv.DestroyDomain(du.ID); err != nil {
		t.Fatal(err)
	}
	if page.Lent() || m.Page.Bytes()[0] != 0 {
		t.Fatal("the destroyed domain's lent page is not a zeroed page of its own")
	}
	m.Page.CopyInto(0, []byte("late"))
	if loan[0] != 0 {
		t.Fatal("a mapping kept past the destroy still reaches the loan")
	}
}

// TestGrantEntrySize: a fleet tenant's grant table holds an entry per ring
// page (513 of them), so the entry is Xen's grant_entry_v1 width, 8 B: the
// page's slab and offset, the remote domain and the flags. It holds no
// pointer of any kind, so the garbage collector never scans a table.
// TestDomainSize holds a Domain to the 208 B size class: a fleet keeps one
// per tenant.
func TestDomainSize(t *testing.T) {
	if got := unsafe.Sizeof(Domain{}); got > 208 {
		t.Fatalf("sizeof(Domain) = %d, want at most 208", got)
	}
}

func TestGrantEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(grantEntry{}); got != 8 {
		t.Fatalf("sizeof(grantEntry) = %d, want 8", got)
	}
	typ := reflect.TypeFor[grantEntry]()
	for i := range typ.NumField() {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Int8, reflect.Int16, reflect.Int32:
		default:
			t.Errorf("grantEntry.%s is a %s; the entry must hold no pointer kind", f.Name, f.Type.Kind())
		}
	}
}

// TestRevokedRefsReused: revoked refs go on a free list threaded through
// their dead entries and come back most recently revoked first; only an
// empty list grows the table, so a grant-and-revoke churn keeps it at its
// peak. A reserve counts the revoked refs it will reuse.
func TestRevokedRefsReused(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	refs := make([]GrantRef, 4)
	for i := range refs {
		refs[i] = du.GrantAccess(dom0.ID, du.Arena.MustAlloc(), false)
	}
	for _, ref := range []GrantRef{refs[1], refs[3], refs[0]} {
		if err := du.EndAccess(ref); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []GrantRef{refs[0], refs[3], refs[1], refs[3] + 1} {
		if got := du.GrantAccess(dom0.ID, du.Arena.MustAlloc(), false); got != want {
			t.Fatalf("GrantAccess issued ref %d, want %d", got, want)
		}
	}
	page := du.Arena.MustAlloc()
	for range 1000 {
		ref := du.GrantAccess(dom0.ID, page, false)
		if err := du.EndAccess(ref); err != nil {
			t.Fatal(err)
		}
	}
	if len(du.grants) != 7 || du.LiveGrants() != 5 {
		t.Fatalf("after churn: table of %d entries, %d live, want 7 and 5", len(du.grants), du.LiveGrants())
	}
	c := cap(du.grants)
	du.ReserveGrants(1 + c - len(du.grants)) // the one revoked ref, then to capacity
	if cap(du.grants) != c {
		t.Fatalf("a reserve the revoked ref and spare capacity cover grew the table to %d", cap(du.grants))
	}
}

// TestDeadMapperUnmapAfterReuse: a mapper's death releases its mappings,
// so the owner may revoke the ref and issue it to another domain; the dead
// mapper's late unmap must leave the new grant's map count alone.
func TestDeadMapperUnmapAfterReuse(t *testing.T) {
	_, hv, dom0 := newHV(t)
	du := hv.CreateDomain(DomainConfig{Name: "domU", VCPUs: 1, MemBytes: 1 << 20})
	dd := hv.CreateDomain(DomainConfig{Name: "dd", VCPUs: 1, MemBytes: 1 << 20})
	ref := du.GrantAccess(dd.ID, du.Arena.MustAlloc(), false)
	stale, err := hv.MapGrant(dd, du.ID, ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.DestroyDomain(dd.ID); err != nil {
		t.Fatal(err)
	}
	if err := du.EndAccess(ref); err != nil {
		t.Fatalf("EndAccess after the mapper died: %v", err)
	}
	if again := du.GrantAccess(dom0.ID, du.Arena.MustAlloc(), false); again != ref {
		t.Fatalf("reissued ref %d, want %d", again, ref)
	}
	m, err := hv.MapGrant(dom0, du.ID, ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := hv.UnmapGrant(dom0, stale); err != nil {
		t.Fatal(err)
	}
	if err := du.EndAccess(ref); err == nil {
		t.Fatal("a dead mapper's late unmap released the new grant's mapping")
	}
	if err := hv.UnmapGrant(dom0, m); err != nil {
		t.Fatal(err)
	}
	if err := du.EndAccess(ref); err != nil {
		t.Fatal(err)
	}
}

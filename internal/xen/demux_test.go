package xen

import (
	"testing"

	"kite/internal/sim"
)

// demuxRig wires one backend-side demux group whose members are ports bound
// to per-tenant frontend domains, mirroring how a fleet-mode netback joins
// one doorbell channel per tenant.
type demuxRig struct {
	eng   *sim.Engine
	hv    *Hypervisor
	dom0  *Domain
	g     *Demux
	next  int
	order []int // tenant id per member, join order (the reference member list)
	lport map[int]Port
	rport map[int]Port
	fdom  map[int]*Domain
	log   []int // tenant ids in delivery order
}

func newDemuxRig(t *testing.T, quantum sim.Time) *demuxRig {
	t.Helper()
	eng, hv, dom0 := newHV(t)
	r := &demuxRig{
		eng: eng, hv: hv, dom0: dom0,
		g:     dom0.NewDemux(dom0.CPUs.CPU(0), quantum),
		lport: make(map[int]Port), rport: make(map[int]Port),
		fdom: make(map[int]*Domain),
	}
	return r
}

// join adds a fresh tenant channel to the group and returns its id.
func (r *demuxRig) join(t *testing.T) int {
	t.Helper()
	id := r.next
	r.next++
	du := r.hv.CreateDomain(DomainConfig{Name: "t", VCPUs: 1, MemBytes: 1 << 20})
	unbound := du.AllocUnbound(r.dom0.ID)
	lport, err := r.dom0.BindInterdomain(du.ID, unbound)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.dom0.SetHandler(lport, func() { r.log = append(r.log, id) }); err != nil {
		t.Fatal(err)
	}
	if err := r.g.Join(lport); err != nil {
		t.Fatal(err)
	}
	r.fdom[id] = du
	r.lport[id] = lport
	r.rport[id] = unbound
	r.order = append(r.order, id)
	return id
}

// leave removes tenant id from the group and the reference list.
func (r *demuxRig) leave(id int) {
	r.g.Leave(r.lport[id])
	for i, o := range r.order {
		if o == id {
			r.order = append(r.order[:i], r.order[i+1:]...)
			break
		}
	}
}

// post rings tenant id's doorbell (frontend side).
func (r *demuxRig) post(id int) {
	r.fdom[id].Notify(r.rport[id])
}

// TestDemuxChurnAgainstReference drives randomized join/leave/post churn
// through a demux group and checks, wave by wave, that the group delivers
// exactly the posted members in join order — the behaviour of a naive
// "ordered list plus pending set" model — regardless of how the bitmap
// grows, shrinks, and compacts underneath.
func TestDemuxChurnAgainstReference(t *testing.T) {
	r := newDemuxRig(t, 0)
	rng := uint64(0xDE11_4B17)
	rand := func(n int) int { // deterministic xorshift; no global rand state
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for i := 0; i < 8; i++ {
		r.join(t)
	}
	for wave := 0; wave < 300; wave++ {
		switch rand(4) {
		case 0:
			r.join(t)
		case 1:
			if len(r.order) > 1 {
				r.leave(r.order[rand(len(r.order))])
			}
		}
		// Post a random subset (possibly with duplicate doorbells, which
		// must coalesce into one delivery).
		posted := make(map[int]bool)
		for n := rand(len(r.order) + 1); n > 0; n-- {
			id := r.order[rand(len(r.order))]
			r.post(id)
			if rand(3) == 0 {
				r.post(id) // duplicate doorbell
			}
			posted[id] = true
		}
		r.log = r.log[:0]
		r.eng.Run()
		// Reference: posted members, join order, exactly once.
		var want []int
		for _, id := range r.order {
			if posted[id] {
				want = append(want, id)
			}
		}
		if len(r.log) != len(want) {
			t.Fatalf("wave %d: delivered %v, want %v", wave, r.log, want)
		}
		for i := range want {
			if r.log[i] != want[i] {
				t.Fatalf("wave %d: delivered %v, want %v", wave, r.log, want)
			}
		}
	}
}

// TestDemuxLeaveMidScan makes handlers tear members out of the group while
// the scan that should deliver them is executing: leaving a member below
// the scan point compacts the bitmap and shifts every unvisited
// bit down one, and leaving a pending member above the scan point must
// cancel its delivery. The surviving members still deliver in join order.
func TestDemuxLeaveMidScan(t *testing.T) {
	r := newDemuxRig(t, 0)
	ids := make([]int, 0, 140)
	for i := 0; i < 140; i++ { // spans three pending words
		ids = append(ids, r.join(t))
	}
	// Tenant 5's handler removes an already-delivered member (2), itself,
	// and a still-pending member two words up (130).
	r.dom0.SetHandler(r.lport[ids[5]], func() {
		r.log = append(r.log, ids[5])
		r.leave(ids[2])
		r.leave(ids[5])
		r.leave(ids[130])
	})
	for _, i := range []int{2, 5, 70, 130, 139} {
		r.post(ids[i])
	}
	r.log = r.log[:0]
	r.eng.Run()
	want := []int{ids[2], ids[5], ids[70], ids[139]}
	if len(r.log) != len(want) {
		t.Fatalf("delivered %v, want %v", r.log, want)
	}
	for i := range want {
		if r.log[i] != want[i] {
			t.Fatalf("delivered %v, want %v", r.log, want)
		}
	}
	// The group must still be fully usable after mid-scan compaction.
	for _, i := range []int{0, 68, 139} {
		if i == 5 || i == 130 || i == 2 {
			continue
		}
		r.post(ids[i])
	}
	r.log = r.log[:0]
	r.eng.Run()
	if len(r.log) != 3 {
		t.Fatalf("post-compaction wave delivered %v", r.log)
	}
}

package core

import (
	"testing"

	"kite/internal/blkif"
	"kite/internal/xen"
)

// TestNonPersistentBlkbackUnmapsEveryGrant runs the A-PG configuration
// (persistent grants off), where blkback maps each segment for one request
// and must unmap it when the request completes or is refused: the
// hypervisor's map and unmap counts must meet after mixed 4 KiB and
// 256 KiB traffic, and again after each refused request shape that maps a
// segment before it is refused, a map the hypervisor refuses (a bogus ref,
// a ref granted to another domain) counting as none.
func TestNonPersistentBlkbackUnmapsEveryGrant(t *testing.T) {
	rig, err := NewStorageRig(StorageRigConfig{Kind: KindKite, Seed: 0xa9, DiskBytes: 64 << 20,
		Tuning: &TuningKnobs{Persistent: false, Indirect: true, Batch: true}})
	if err != nil {
		t.Fatal(err)
	}
	hv, eng, disk := rig.System.HV, rig.System.Eng, rig.Guest.Disk
	balanced := func(when string) {
		t.Helper()
		if st := hv.Stats(); st.GrantMaps != st.GrantUnmaps {
			t.Fatalf("%s: %d grant maps, %d unmaps", when, st.GrantMaps, st.GrantUnmaps)
		}
	}

	before := hv.Stats().GrantMaps
	done := 0
	for i := 0; i < 16; i++ {
		disk.WriteSectors(int64(i)*8, patternSeed(4096, byte(i)), func(err error) {
			if err != nil {
				t.Errorf("4 KiB write: %v", err)
			}
			done++
		})
		disk.ReadSectors(4096+int64(i)*512, 256<<10, func(_ []byte, err error) {
			if err != nil {
				t.Errorf("256 KiB read: %v", err)
			}
			done++
		})
	}
	eng.Run()
	if done != 32 {
		t.Fatalf("%d of 32 requests completed", done)
	}
	if hv.Stats().GrantMaps-before < 16*(1+64) {
		t.Fatalf("traffic mapped %d grants; persistent grants are not off", hv.Stats().GrantMaps-before)
	}
	balanced("after mixed traffic")

	evil := attachEvilBlk(t, rig.System, rig.SD)
	grant := func() xen.GrantRef {
		return evil.dom.GrantAccess(rig.SD.Dom.ID, evil.dom.Arena.MustAlloc(), false)
	}
	refused := []struct {
		name string
		req  blkif.Request
	}{
		{"bad segment range in resolve", blkif.Request{Op: blkif.OpWrite, Segs: []blkif.Segment{
			{Ref: grant(), FirstSect: 0, LastSect: 7}, {Ref: grant(), FirstSect: 6, LastSect: 2}}}},
		{"sector past the vbd in parse", blkif.Request{Op: blkif.OpRead, Sector: 1 << 40, Segs: []blkif.Segment{
			{Ref: grant(), FirstSect: 0, LastSect: 7}, {Ref: grant(), FirstSect: 0, LastSect: 7}}}},
		{"bogus ref in resolve", blkif.Request{Op: blkif.OpWrite, Segs: []blkif.Segment{
			{Ref: grant(), FirstSect: 0, LastSect: 7}, {Ref: 0xbad, FirstSect: 0, LastSect: 7}}}},
		{"foreign ref in resolve", blkif.Request{Op: blkif.OpWrite, Segs: []blkif.Segment{
			{Ref: grant(), FirstSect: 0, LastSect: 7},
			{Ref: evil.dom.GrantAccess(0, evil.dom.Arena.MustAlloc(), false), FirstSect: 0, LastSect: 7}}}},
	}
	for i, r := range refused {
		r.req.ID = uint64(100 + i)
		maps := hv.Stats().GrantMaps
		evil.push(r.req)
		var rsp blkif.Response
		got := false
		rig.System.RunReady(func() bool {
			rsp, got = evil.ring.TakeResponse()
			return got
		}, 2_000_000)
		if !got || rsp.ID != r.req.ID || rsp.Status != blkif.StatusError {
			t.Fatalf("%s: response %+v (got %v), want an error", r.name, rsp, got)
		}
		if hv.Stats().GrantMaps == maps {
			t.Fatalf("%s: refused before mapping anything, so it proves nothing", r.name)
		}
		balanced("after " + r.name)
	}
}

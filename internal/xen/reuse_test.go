package xen_test

import (
	"testing"

	"kite/internal/core"
	"kite/internal/xen"
)

// TestNonPersistentReadsReuseRefs runs the A-PG configuration (persistent
// grants off), where blkfront grants a fresh page per segment and revokes
// it at completion: 8,000 reads of 256 KiB, one in flight at a time, issue
// over half a million grants, and the guest's grant table must end no
// longer than the most grants ever live at once, plus ref 0's slot.
func TestNonPersistentReadsReuseRefs(t *testing.T) {
	const reads, size = 8000, 256 << 10
	rig, err := core.NewStorageRig(core.StorageRigConfig{Kind: core.KindKite, Seed: 0xa9, DiskBytes: 64 << 20,
		Tuning: &core.TuningKnobs{Persistent: false, Indirect: true, Batch: true}})
	if err != nil {
		t.Fatal(err)
	}
	guest, disk, eng := rig.Guest.Dom, rig.Guest.Disk, rig.System.Eng
	dst := make([]byte, size)
	peak, done := guest.LiveGrants(), 0
	for i := range reads {
		disk.ReadSectorsInto(int64(i%256)*(size/512), dst, func(err error) {
			if err != nil {
				t.Errorf("read %d: %v", i, err)
			}
			done++
		})
		peak = max(peak, guest.LiveGrants())
		eng.Run()
	}
	if done != reads {
		t.Fatalf("%d of %d reads completed", done, reads)
	}
	if peak < 64 {
		t.Fatalf("at most %d grants live; the reads did not grant their pages", peak)
	}
	if n := xen.GrantTableLen(guest); n > peak+1 {
		t.Fatalf("grant table of %d entries after %d reads, want at most %d (peak live grants + 1)", n, reads, peak+1)
	}
}

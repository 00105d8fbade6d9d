package core

import "testing"

// TestFleetStorageUnderClusterRun drives fleet tenants' vbds with the
// cluster's own Run loop (a shard's events run in batches) rather than
// RunReady's one-event Step: every tenant writes a block and reads it back, and both buffer
// pools drain.
func TestFleetStorageUnderClusterRun(t *testing.T) {
	rig, err := NewFleetRig(FleetConfig{Guests: 16, Lanes: 4, Seed: 1, Storage: true})
	if err != nil {
		t.Fatalf("NewFleetRig: %v", err)
	}
	sys := rig.Testbed.System
	okRead := make([]bool, len(rig.Guests))
	for i, g := range rig.Guests {
		i, g := i, g
		buf := make([]byte, 4096)
		for j := range buf {
			buf[j] = byte(i*13 + j*7)
		}
		g.Disk.WriteSectors(0, buf, func(err error) {
			if err != nil {
				t.Errorf("tenant %d write: %v", i, err)
				return
			}
			g.Disk.ReadSectors(0, 4096, func(data []byte, err error) {
				if err != nil {
					t.Errorf("tenant %d read: %v", i, err)
					return
				}
				for j := range data {
					if data[j] != byte(i*13+j*7) {
						t.Errorf("tenant %d read corrupt at %d", i, j)
						return
					}
				}
				okRead[i] = true
			})
		})
	}
	sys.Eng.Run()
	for i, ok := range okRead {
		if !ok {
			t.Errorf("tenant %d: storage round trip incomplete", i)
		}
	}
	if n := sys.Pool.Outstanding(); n != 0 {
		t.Errorf("%d frame buffers outstanding", n)
	}
	if n := sys.BlkPool.Outstanding(); n != 0 {
		t.Errorf("%d block buffers outstanding", n)
	}
}

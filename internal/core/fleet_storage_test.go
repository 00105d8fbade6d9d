package core

import "testing"

// TestFleetStorageUnderClusterRun drives fleet tenants' vbds with the
// cluster's own Run loop (windows, barriers, workers) rather than RunReady's
// serial Step: every tenant writes a block and reads it back, and both
// buffer pools drain.
func TestFleetStorageUnderClusterRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		rig, err := NewFleetRig(FleetConfig{Guests: 16, Lanes: 4, Seed: 1, Storage: true})
		if err != nil {
			t.Fatalf("workers=%d: NewFleetRig: %v", workers, err)
		}
		sys := rig.Testbed.System
		sys.Cluster.SetWorkers(workers)
		okRead := make([]bool, len(rig.Guests))
		for i, g := range rig.Guests {
			i, g := i, g
			buf := make([]byte, 4096)
			for j := range buf {
				buf[j] = byte(i*13 + j*7)
			}
			g.Disk.WriteSectors(0, buf, func(err error) {
				if err != nil {
					t.Errorf("workers=%d tenant %d write: %v", workers, i, err)
					return
				}
				g.Disk.ReadSectors(0, 4096, func(data []byte, err error) {
					if err != nil {
						t.Errorf("workers=%d tenant %d read: %v", workers, i, err)
						return
					}
					for j := range data {
						if data[j] != byte(i*13+j*7) {
							t.Errorf("workers=%d tenant %d read corrupt at %d", workers, i, j)
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
				t.Errorf("workers=%d tenant %d: storage round trip incomplete", workers, i)
			}
		}
		if n := sys.Pool.Outstanding(); n != 0 {
			t.Errorf("workers=%d: %d frame buffers outstanding", workers, n)
		}
		if n := sys.BlkPool.Outstanding(); n != 0 {
			t.Errorf("workers=%d: %d block buffers outstanding", workers, n)
		}
	}
}

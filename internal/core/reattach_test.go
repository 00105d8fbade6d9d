package core

import (
	"bytes"
	"fmt"
	"testing"

	"kite/internal/netstack"
	"kite/internal/sim"
)

// TestNetDomainDiesMidTraffic destroys the network domain 3 µs after the
// guest sends 64 datagrams, while netback is still draining them: the work
// the dead domain had scheduled runs on into ports its death closed, and
// must not bring the simulation down. A replacement domain then takes the
// same vif, reattached in place: it renegotiates the queue count it had —
// four queues on the same cluster shards for the sharded rig — keeps its
// MAC and the stack bound to it, holds exactly one handshake's grants and
// pages (the dead backend's mappings died with it, so the old set ended),
// and carries traffic again.
func TestNetDomainDiesMidTraffic(t *testing.T) {
	for _, queues := range []int{1, 4} {
		t.Run(fmt.Sprintf("queues=%d", queues), func(t *testing.T) {
			rig, err := NewNetworkRigCfg(NetworkRigConfig{Kind: KindKite, Seed: 0xdead, Queues: queues})
			if err != nil {
				t.Fatal(err)
			}
			sys, g := rig.System, rig.Guest
			grants, pages := g.Dom.LiveGrants(), g.Dom.Arena.InUse()
			mac := g.Net.MAC()

			got := 0
			rig.Client.Stack.BindUDP(9000, func(netstack.UDPPacket) { got++ })
			payload := make([]byte, 512)
			for i := 0; i < 64; i++ {
				g.Stack.SendUDP(rig.ClientIP, 9000, uint16(10000+i), payload)
			}
			sys.Eng.After(3*sim.Microsecond, func() {
				if err := sys.HV.DestroyDomain(rig.ND.Dom.ID); err != nil {
					t.Error(err)
				}
			})
			sys.Eng.RunFor(sim.Millisecond)

			vcpus := 0
			if queues > 1 {
				vcpus = 2 * queues
			}
			nd2, err := sys.CreateNetworkDomain(NetworkDomainConfig{Kind: KindKite, NIC: rig.ServerNIC, VCPUs: vcpus})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.Reattach(sys, nd2); err != nil {
				t.Fatal(err)
			}
			if !sys.RunReady(g.Ready, 500000) {
				t.Fatal("reattached vif never connected")
			}
			if n := g.Net.NumQueues(); n != queues {
				t.Fatalf("reattached vif negotiated %d queues, want %d", n, queues)
			}
			if v := nd2.Driver.VIFs(); len(v) != 1 || v[0].NumQueues() != queues {
				t.Fatalf("replacement backend serves %d vifs", len(v))
			}
			if g.Net.MAC() != mac {
				t.Fatalf("vif MAC %v after reattach, was %v", g.Net.MAC(), mac)
			}
			if n, p := g.Dom.LiveGrants(), g.Dom.Arena.InUse(); n != grants || p != pages {
				t.Fatalf("guest holds %d grants and %d pages after reattach, %d and %d before", n, p, grants, pages)
			}

			got = 0
			for i := 0; i < 16; i++ {
				g.Stack.SendUDP(rig.ClientIP, 9000, uint16(20000+i), payload)
			}
			sys.Eng.Run()
			if got != 16 {
				t.Fatalf("%d of 16 datagrams arrived through the replacement domain", got)
			}
		})
	}
}

// blkDeathRig is a guest with a vbd on a Kite storage domain, and eight
// 1 MiB writes plus a 256 KiB read in flight when the domain dies 20 µs in.
type blkDeathRig struct {
	rig      *StorageRig
	written  [][]byte
	writes   []int   // callbacks per write
	reads    int     // callbacks of the read
	errs     []error // every error a callback reported
	readSect int64
}

const blkDeathWrites, blkDeathWriteBytes, blkDeathReadBytes = 8, 1 << 20, 256 << 10

func newBlkDeathRig(t *testing.T) *blkDeathRig {
	t.Helper()
	rig, err := NewStorageRig(StorageRigConfig{Kind: KindKite, Seed: 0xb1d, DiskBytes: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	r := &blkDeathRig{rig: rig, writes: make([]int, blkDeathWrites)}
	sys, disk := rig.System, rig.Guest.Disk
	for i := 0; i < blkDeathWrites; i++ {
		data := patternSeed(blkDeathWriteBytes, byte(0x40+i))
		r.written = append(r.written, data)
		disk.WriteSectors(int64(i)*blkDeathWriteBytes/512, data, func(err error) {
			r.writes[i]++
			if err != nil {
				r.errs = append(r.errs, err)
			}
		})
	}
	r.readSect = blkDeathWrites * blkDeathWriteBytes / 512
	disk.ReadSectors(r.readSect, blkDeathReadBytes, func(_ []byte, err error) {
		r.reads++
		if err != nil {
			r.errs = append(r.errs, err)
		}
	})
	sys.Eng.After(20*sim.Microsecond, func() {
		if err := sys.HV.DestroyDomain(rig.SD.Dom.ID); err != nil {
			t.Error(err)
		}
	})
	sys.Eng.RunFor(100 * sim.Millisecond)
	return r
}

// TestBlkDomainDiesMidWrite: the storage domain dies with writes and a
// read in flight; its leftover NVMe completions and request pushes run into
// ports its death closed and must not bring the simulation down. Some of
// the requests are still unanswered: they wait for a backend.
func TestBlkDomainDiesMidWrite(t *testing.T) {
	r := newBlkDeathRig(t)
	done := r.reads
	for _, n := range r.writes {
		done += n
	}
	if done == blkDeathWrites+1 {
		t.Fatal("every request completed before the domain died: nothing was in flight")
	}
}

// TestBlkReattachAfterMidWriteDeath reattaches the guest of
// TestBlkDomainDiesMidWrite to a replacement storage domain on the same
// NVMe device and params window. The requests the dead backend left
// unanswered are resubmitted there (Linux's blkif_recover): every write and
// read callback fires exactly once, with no error, a read-back matches
// every byte written, and no read buffer or grant is left behind.
func TestBlkReattachAfterMidWriteDeath(t *testing.T) {
	r := newBlkDeathRig(t)
	sys, g := r.rig.System, r.rig.Guest
	sd2, err := sys.CreateStorageDomain(StorageDomainConfig{Kind: KindKite, Device: r.rig.NVMe})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Reattach(sys, sd2); err != nil {
		t.Fatal(err)
	}
	if !sys.RunReady(g.Ready, 500000) {
		t.Fatal("reattached vbd never connected")
	}
	sys.Eng.Run()
	for i, n := range r.writes {
		if n != 1 {
			t.Fatalf("write %d completed %d times", i, n)
		}
	}
	if r.reads != 1 || len(r.errs) != 0 {
		t.Fatalf("read completed %d times; errors %v", r.reads, r.errs)
	}
	for i, want := range r.written {
		var back []byte
		g.Disk.ReadSectors(int64(i)*blkDeathWriteBytes/512, len(want), func(b []byte, err error) {
			if err != nil {
				t.Errorf("read-back %d: %v", i, err)
			}
			back = bytes.Clone(b)
		})
		sys.Eng.Run()
		if !bytes.Equal(back, want) {
			t.Fatalf("read-back of write %d differs from what was written", i)
		}
	}
	if n := sys.BlkPool.Outstanding(); n != 0 {
		t.Fatalf("%d read buffers outstanding", n)
	}
	// The persistent pool now names pages granted to the replacement only:
	// what the dead backend held ended with the old handshake.
	if g.Dom.LiveGrants() != g.Dom.Arena.InUse() {
		t.Fatalf("guest holds %d grants over %d pages", g.Dom.LiveGrants(), g.Dom.Arena.InUse())
	}
}

// TestReattachNeedsTheDevice: a guest without a device of the replacement
// domain's class has nothing to replug.
func TestReattachNeedsTheDevice(t *testing.T) {
	rig, err := NewNetworkRig(KindKite, 0x5e)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := rig.System.CreateStorageDomain(StorageDomainConfig{Kind: KindKite, Device: rig.NVMe})
	if err != nil {
		t.Fatal(err)
	}
	if err := rig.Guest.Reattach(rig.System, sd); err == nil {
		t.Fatal("reattached a vbd the guest does not have")
	}
}

package guestos

import (
	"testing"

	"kite/internal/sim"
)

func TestSyscallCountsMatchPaper(t *testing.T) {
	// Figure 4a: Kite net 14, Kite storage 18, Ubuntu 171 (10x more).
	if n := len(KiteNetworkSyscalls); n != 14 {
		t.Fatalf("kite network syscalls = %d, want 14", n)
	}
	if n := len(KiteStorageSyscalls); n != 18 {
		t.Fatalf("kite storage syscalls = %d, want 18", n)
	}
	if n := len(UbuntuDriverDomainSyscalls); n != 171 {
		t.Fatalf("ubuntu syscalls = %d, want 171", n)
	}
	ratio := float64(len(UbuntuDriverDomainSyscalls)) / float64(len(KiteNetworkSyscalls))
	if ratio < 10 {
		t.Fatalf("syscall reduction = %.1fx, want >= 10x", ratio)
	}
}

func TestNoDuplicateSyscalls(t *testing.T) {
	for _, list := range [][]string{KiteNetworkSyscalls, KiteStorageSyscalls, UbuntuDriverDomainSyscalls} {
		seen := map[string]bool{}
		for _, s := range list {
			if seen[s] {
				t.Fatalf("duplicate syscall %q", s)
			}
			seen[s] = true
		}
	}
}

func TestImageSizesMatchPaper(t *testing.T) {
	// Figure 4b: Linux kernel+modules ~43 MB, Kite image ~10x smaller.
	ubuntu := UbuntuDriverDomain()
	kite := KiteNetworkDomain()
	uMB := float64(ubuntu.KernelImageBytes()) / (1 << 20)
	kMB := float64(kite.KernelImageBytes()) / (1 << 20)
	if uMB < 40 || uMB > 46 {
		t.Fatalf("ubuntu kernel+modules = %.1f MB, want ~43", uMB)
	}
	if ratio := uMB / kMB; ratio < 9 || ratio > 12 {
		t.Fatalf("image ratio = %.1fx, want ~10x", ratio)
	}
}

func TestBootTimesMatchPaper(t *testing.T) {
	// Figure 4c / claim C1: Kite ~7 s, Ubuntu ~75 s, at least 10x faster.
	u := UbuntuDriverDomain().BootTime()
	k := KiteNetworkDomain().BootTime()
	if u != 75*sim.Second {
		t.Fatalf("ubuntu boot = %v, want 75s", u)
	}
	if k != 7*sim.Second {
		t.Fatalf("kite boot = %v, want 7s", k)
	}
	if u < 10*k {
		t.Fatalf("boot speedup %.1fx, want >= 10x", float64(u)/float64(k))
	}
}

func TestBootSequenceRuns(t *testing.T) {
	eng := sim.NewEngine()
	p := KiteStorageDomain()
	var phases []string
	var doneAt sim.Time = -1
	p.Boot(eng, func(ph BootPhase) { phases = append(phases, ph.Name) }, func() { doneAt = eng.Now() })
	eng.Run()
	if len(phases) != len(p.BootPhases) {
		t.Fatalf("observed %d phases, want %d", len(phases), len(p.BootPhases))
	}
	if doneAt != p.BootTime() {
		t.Fatalf("boot completed at %v, want %v", doneAt, p.BootTime())
	}
}

func TestSyscallAndComponentLookup(t *testing.T) {
	k := KiteNetworkDomain()
	if !k.HasSyscall("socket") || k.HasSyscall("execve") {
		t.Fatal("kite net syscall lookup wrong")
	}
	u := UbuntuDriverDomain()
	if !u.HasSyscall("execve") || !u.HasComponent("python3") {
		t.Fatal("ubuntu lookup wrong")
	}
	if k.HasComponent("python3") || k.HasComponent("bash") {
		t.Fatal("kite ships userspace it should not")
	}
}

func TestProfilesHaveDistinctParameters(t *testing.T) {
	u := UbuntuDriverDomain()
	k := KiteNetworkDomain()
	if k.MemBytes >= u.MemBytes {
		t.Fatal("kite domain should need less RAM (§5: 1GB vs 2GB)")
	}
	if k.IRQLatency >= u.IRQLatency {
		t.Fatal("rumprun upcall latency should be below Linux's")
	}
	g := UbuntuGuest()
	if g.VCPUs != 22 || g.MemBytes != 5<<30 {
		t.Fatalf("guest profile = %d vCPUs / %d MB", g.VCPUs, g.MemBytes>>20)
	}
}

func TestDHCPDomainProfile(t *testing.T) {
	p := KiteDHCPDomain()
	if !p.HasComponent("opendhcp") {
		t.Fatal("dhcp domain missing app")
	}
	if p.BootTime() >= UbuntuDriverDomain().BootTime() {
		t.Fatal("daemon VM boot not lightweight")
	}
}

// Package xlcli implements the xl-flavoured scenario interpreter behind
// cmd/kitexl: commands mirroring the artifact appendix's workflow
// (§A.3/§A.4 — pci-assignable-add, create, list, destroy) plus probes
// (ping, ifconfig, brconfig, run). Lines starting with '#' are comments.
package xlcli

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"kite/internal/core"
	"kite/internal/netpkt"
	"kite/internal/sim"
	"kite/internal/xen"
)

// Interp executes scenario commands against one simulated testbed.
type Interp struct {
	tb       *core.Testbed
	nd       *core.NetworkDomain
	sd       *core.StorageDomain
	guests   map[string]*core.Guest
	assigned map[string]bool
	out      io.Writer
}

// New creates an interpreter writing command output to out.
func New(seed uint64, out io.Writer) *Interp {
	return &Interp{
		tb:       core.NewTestbed(seed),
		guests:   make(map[string]*core.Guest),
		assigned: make(map[string]bool),
		out:      out,
	}
}

// RunScript executes every line of a script, stopping at the first error.
func (st *Interp) RunScript(r io.Reader) error {
	scanner := bufio.NewScanner(r)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := st.Exec(line); err != nil {
			return fmt.Errorf("line %d (%q): %w", lineNo, line, err)
		}
	}
	return scanner.Err()
}

// Exec runs one command line.
func (st *Interp) Exec(line string) error {
	fields := strings.Fields(line)
	opts := map[string]string{}
	var pos []string
	for _, f := range fields[1:] {
		if k, v, ok := strings.Cut(f, "="); ok {
			opts[k] = v
		} else {
			opts[f] = ""
			pos = append(pos, f)
		}
	}
	sys := st.tb.System
	switch fields[0] {
	case "pci-assignable-add":
		if len(pos) != 1 {
			return fmt.Errorf("usage: pci-assignable-add <bdf>")
		}
		st.assigned[pos[0]] = true
		fmt.Fprintf(st.out, "device %s made assignable\n", pos[0])
		return nil

	case "create":
		if len(pos) == 0 {
			return fmt.Errorf("create what?")
		}
		switch pos[0] {
		case "network":
			if !st.assigned[st.tb.ServerNIC.BDF()] {
				return fmt.Errorf("NIC %s not assignable (pci-assignable-add first)", st.tb.ServerNIC.BDF())
			}
			cfg := core.NetworkDomainConfig{Kind: parseKind(opts["kind"]), NIC: st.tb.ServerNIC}
			_, cfg.Boot = opts["boot"]
			if gw, ok := opts["nat"]; ok {
				ip, err := parseIP(gw)
				if err != nil {
					return err
				}
				cfg.NAT, cfg.GatewayIP = true, ip
			}
			nd, err := sys.CreateNetworkDomain(cfg)
			if err != nil {
				return err
			}
			st.nd = nd
			sys.RunReady(nd.Ready, 2_000_000)
			fmt.Fprintf(st.out, "network domain %s up (domid %d) at t=%.1fs\n",
				nd.Profile.Name, nd.Dom.ID, sys.Eng.Now().Seconds())
			return nil
		case "storage":
			if !st.assigned[st.tb.NVMe.BDF()] {
				return fmt.Errorf("NVMe %s not assignable", st.tb.NVMe.BDF())
			}
			cfg := core.StorageDomainConfig{Kind: parseKind(opts["kind"]), Device: st.tb.NVMe}
			_, cfg.Boot = opts["boot"]
			sd, err := sys.CreateStorageDomain(cfg)
			if err != nil {
				return err
			}
			st.sd = sd
			sys.RunReady(sd.Ready, 2_000_000)
			fmt.Fprintf(st.out, "storage domain %s up (domid %d)\n", sd.Profile.Name, sd.Dom.ID)
			return nil
		case "guest":
			name := opts["name"]
			if name == "" {
				return fmt.Errorf("guest needs name=")
			}
			cfg := core.GuestConfig{Name: name, Seed: uint64(len(st.guests)) + 5}
			if _, ok := opts["net"]; ok {
				if st.nd == nil {
					return fmt.Errorf("no network domain yet")
				}
				cfg.Net = st.nd
				ip, err := parseIP(opts["ip"])
				if err != nil {
					return err
				}
				cfg.IP = ip
			}
			if mbStr, ok := opts["disk"]; ok {
				if st.sd == nil {
					return fmt.Errorf("no storage domain yet")
				}
				mb, err := strconv.Atoi(mbStr)
				if err != nil {
					return fmt.Errorf("bad disk size %q", mbStr)
				}
				cfg.Storage = st.sd
				cfg.DiskBytes = int64(mb) << 20
			}
			g, err := sys.CreateGuest(cfg)
			if err != nil {
				return err
			}
			if !sys.RunReady(g.Ready, 2_000_000) {
				return fmt.Errorf("guest %s devices never connected", name)
			}
			st.guests[name] = g
			fmt.Fprintf(st.out, "guest %s up (domid %d)\n", name, g.Dom.ID)
			return nil
		case "dhcpvm":
			if st.nd == nil {
				return fmt.Errorf("no network domain yet")
			}
			ip, err := parseIP(opts["ip"])
			if err != nil {
				return err
			}
			start, count, err := parsePool(opts["pool"])
			if err != nil {
				return err
			}
			vm, err := sys.CreateDHCPDaemonVM(st.nd, ip, start, count)
			if err != nil {
				return err
			}
			sys.RunReady(vm.Guest.Ready, 2_000_000)
			st.guests["dhcp-vm"] = vm.Guest
			fmt.Fprintf(st.out, "dhcp daemon VM up (domid %d), pool %v+%d\n", vm.Guest.Dom.ID, start, count)
			return nil
		}
		return fmt.Errorf("unknown create target %q", pos[0])

	case "ifconfig":
		if st.nd == nil {
			return fmt.Errorf("no network domain")
		}
		out, err := st.nd.Ifconfig(fields[1:]...)
		if err != nil {
			return err
		}
		fmt.Fprint(st.out, out)
		return nil

	case "brconfig":
		if st.nd == nil {
			return fmt.Errorf("no network domain")
		}
		out, err := st.nd.Brconfig(fields[1:]...)
		if err != nil {
			return err
		}
		fmt.Fprint(st.out, out)
		return nil

	case "ping":
		if len(pos) != 1 {
			return fmt.Errorf("usage: ping <ip>")
		}
		ip, err := parseIP(pos[0])
		if err != nil {
			return err
		}
		var rtt sim.Time = -1
		st.tb.Client.Stack.Ping(ip, 56, func(d sim.Time) { rtt = d })
		if !sys.RunReady(func() bool { return rtt >= 0 }, 2_000_000) {
			return fmt.Errorf("no reply from %v", ip)
		}
		fmt.Fprintf(st.out, "64 bytes from %v: time=%.3f ms\n", ip, rtt.Millis())
		return nil

	case "run":
		if len(pos) != 1 {
			return fmt.Errorf("usage: run <ms>")
		}
		ms, err := strconv.Atoi(pos[0])
		if err != nil {
			return err
		}
		sys.Eng.RunFor(sim.Time(ms) * sim.Millisecond)
		fmt.Fprintf(st.out, "t=%.3fs\n", sys.Eng.Now().Seconds())
		return nil

	case "list":
		fmt.Fprintf(st.out, "%-16s %-5s %-6s %-8s\n", "Name", "ID", "VCPUs", "Mem(MB)")
		for _, d := range sortedDomains(sys) {
			fmt.Fprintf(st.out, "%-16s %-5d %-6d %-8d\n", d.Name, d.ID, d.CPUs.Len(),
				int64(d.Arena.Capacity())*4096>>20)
		}
		return nil

	case "destroy":
		if len(pos) != 1 {
			return fmt.Errorf("usage: destroy <name>")
		}
		for _, d := range sys.HV.Domains() {
			if d.Name == pos[0] {
				if err := sys.HV.DestroyDomain(d.ID); err != nil {
					return err
				}
				sys.Eng.RunFor(sim.Millisecond)
				fmt.Fprintf(st.out, "destroyed %s\n", pos[0])
				return nil
			}
		}
		return fmt.Errorf("no domain named %q", pos[0])
	}
	return fmt.Errorf("unknown command %q", fields[0])
}

func parseKind(s string) core.DriverKind {
	if s == "linux" {
		return core.KindLinux
	}
	return core.KindKite
}

func parseIP(s string) (netpkt.IP, error) {
	var a, b, c, d int
	if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
		return netpkt.IP{}, fmt.Errorf("bad IP %q", s)
	}
	return netpkt.IPv4(byte(a), byte(b), byte(c), byte(d)), nil
}

func parsePool(s string) (netpkt.IP, int, error) {
	ipStr, countStr, ok := strings.Cut(s, ":")
	if !ok {
		return netpkt.IP{}, 0, fmt.Errorf("pool wants <start>:<count>")
	}
	ip, err := parseIP(ipStr)
	if err != nil {
		return netpkt.IP{}, 0, err
	}
	count, err := strconv.Atoi(countStr)
	if err != nil {
		return netpkt.IP{}, 0, err
	}
	return ip, count, nil
}

func sortedDomains(sys *core.System) []*xen.Domain {
	domains := sys.HV.Domains()
	for i := 0; i < len(domains); i++ {
		for j := i + 1; j < len(domains); j++ {
			if domains[j].ID < domains[i].ID {
				domains[i], domains[j] = domains[j], domains[i]
			}
		}
	}
	return domains
}

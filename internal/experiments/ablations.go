package experiments

import (
	"fmt"

	"kite/internal/core"
	"kite/internal/metrics"
	"kite/internal/sim"
	"kite/internal/workload"
)

// AblationResult reports one design-choice toggle.
type AblationResult struct {
	Name     string
	On, Off  float64
	Unit     string
	AuxOn    uint64
	AuxOff   uint64
	AuxLabel string
	Table    *metrics.Table
}

func (a *AblationResult) render(title string) {
	a.Table = metrics.NewTable(title, "setting", a.Unit, a.AuxLabel)
	a.Table.AddRow("enabled", metrics.FormatFloat(a.On), fmt.Sprintf("%d", a.AuxOn))
	a.Table.AddRow("disabled", metrics.FormatFloat(a.Off), fmt.Sprintf("%d", a.AuxOff))
}

// ddThroughput runs a fixed sequential write workload on a tuned rig and
// returns throughput plus hypercall/backend counters.
func ddThroughput(knobs core.TuningKnobs, bytes int64, bs int) (mbps float64, grantMaps, deviceOps, ringReqs uint64) {
	rig := mustStorRig(core.StorageRigConfig{
		Kind: core.KindKite, Seed: 0xAB1, DiskBytes: 4 << 30, Tuning: &knobs,
	})
	hv := rig.Testbed.System.HV
	maps0 := hv.Stats().GrantMaps
	out := await(rig.Testbed.System, 60_000_000, func(done func(workload.DDResult)) {
		workload.DDWrite(rig.Guest.Disk, bytes, bs, done)
	})
	inst := rig.SD.Driver.Instances()[0]
	return out.MBps, hv.Stats().GrantMaps - maps0,
		inst.Stats().DeviceOps, inst.Stats().RingRequests
}

// AblationPersistentGrants measures §3.3's persistent grant references:
// with the cache on, steady-state map hypercalls all but disappear.
func AblationPersistentGrants(s Scale) *AblationResult {
	on, mapsOn, _, _ := ddThroughput(core.TuningKnobs{Persistent: true, Indirect: true, Batch: true}, s.DDBytes, 128<<10)
	off, mapsOff, _, _ := ddThroughput(core.TuningKnobs{Persistent: false, Indirect: true, Batch: true}, s.DDBytes, 128<<10)
	a := &AblationResult{Name: "persistent-grants", On: on, Off: off, Unit: "MB/s",
		AuxOn: mapsOn, AuxOff: mapsOff, AuxLabel: "grant maps"}
	a.render("A-PG: persistent grant references")
	return a
}

// AblationIndirectSegments measures §3.3's indirect segments: without
// them, large I/O splits into 44 KiB requests.
func AblationIndirectSegments(s Scale) *AblationResult {
	on, _, _, reqsOn := ddThroughput(core.TuningKnobs{Persistent: true, Indirect: true, Batch: true}, s.DDBytes, 128<<10)
	off, _, _, reqsOff := ddThroughput(core.TuningKnobs{Persistent: true, Indirect: false, Batch: true}, s.DDBytes, 128<<10)
	a := &AblationResult{Name: "indirect-segments", On: on, Off: off, Unit: "MB/s",
		AuxOn: reqsOn, AuxOff: reqsOff, AuxLabel: "ring requests"}
	a.render("A-IND: indirect segment requests")
	return a
}

// AblationBatching measures §3.3's consecutive-segment batching: merged
// requests mean fewer device operations.
func AblationBatching(s Scale) *AblationResult {
	on, _, opsOn, _ := ddThroughput(core.TuningKnobs{Persistent: true, Indirect: false, Batch: true}, s.DDBytes, 176<<10)
	off, _, opsOff, _ := ddThroughput(core.TuningKnobs{Persistent: true, Indirect: false, Batch: false}, s.DDBytes, 176<<10)
	a := &AblationResult{Name: "request-batching", On: on, Off: off, Unit: "MB/s",
		AuxOn: opsOn, AuxOff: opsOff, AuxLabel: "device ops"}
	a.render("A-BATCH: consecutive request batching")
	return a
}

// AblationThreadedModel measures §3.2's dedicated pusher/soft_start
// threads against in-handler processing: under bidirectional load the
// threaded model keeps ping latency low while the in-handler variant
// blocks notifications behind data processing.
func AblationThreadedModel(s Scale) *AblationResult {
	measure := func(inHandler bool) (avgMs float64, wakes uint64) {
		tb := core.NewTestbed(0xAB2)
		nd, err := tb.System.CreateNetworkDomain(core.NetworkDomainConfig{
			Kind: core.KindKite, NIC: tb.ServerNIC,
		})
		if err != nil {
			panic(err)
		}
		guest, err := tb.System.CreateGuest(core.GuestConfig{
			Name: "domU", IP: tb.GuestIP, Net: nd, Seed: 7,
		})
		if err != nil {
			panic(err)
		}
		drive(tb.System, guest.Ready, 500000)
		// Retune the connected VIF (the knob only affects the data path).
		vifs := nd.Driver.VIFs()
		if len(vifs) != 1 {
			panic("ablation: expected one vif")
		}
		vifs[0].SetInHandler(inHandler)

		// Background bulk UDP stream + foreground pings.
		var pingRes workload.PingResult
		stage := 0
		workload.Nuttcp(tb.Client, guest.Stack, 4.0, 8192, s.NuttcpDur, func(workload.NuttcpResult) { stage++ })
		workload.Ping(tb.Client.Stack, tb.GuestIP, s.PingCount, 300*sim.Microsecond, 56,
			func(r workload.PingResult) {
				pingRes = r
				stage++
			})
		drive(tb.System, func() bool { return stage == 2 }, 60_000_000)
		w, _ := vifs[0].PusherRuns()
		return pingRes.AvgRTT.Millis(), w
	}
	threadedMs, wakesOn := measure(false)
	inHandlerMs, wakesOff := measure(true)
	a := &AblationResult{Name: "threaded-model", On: threadedMs, Off: inHandlerMs, Unit: "ping ms under load",
		AuxOn: wakesOn, AuxOff: wakesOff, AuxLabel: "pusher wakes"}
	a.render("A-THR: dedicated pusher/soft_start threads")
	return a
}

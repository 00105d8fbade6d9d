package xenbus

import (
	"strings"
	"testing"

	"kite/internal/sim"
	"kite/internal/xenstore"
)

func newBus() (*sim.Engine, *Bus) {
	eng := sim.NewEngine()
	return eng, New(xenstore.New(eng))
}

func TestPathLayout(t *testing.T) {
	if got := FrontendPath(3, "vif", 0); got != "/local/domain/3/device/vif/0" {
		t.Fatalf("frontend path = %s", got)
	}
	if got := BackendPath(1, "vif", 3, 0); got != "/local/domain/1/backend/vif/3/0" {
		t.Fatalf("backend path = %s", got)
	}
	if got := BackendRoot(1, "vbd"); got != "/local/domain/1/backend/vbd" {
		t.Fatalf("backend root = %s", got)
	}
}

func TestAddDeviceSkeleton(t *testing.T) {
	_, b := newBus()
	fp, bp := b.AddDevice(DeviceSpec{
		Type: "vif", FrontDom: 3, BackDom: 1, DevID: 0,
		FrontExtra: map[string]string{"mac": "00:16:3e:00:00:01"},
		BackExtra:  map[string]string{"bridge": "xenbr0"},
	})
	st := b.Store()
	if v, _ := st.Read(fp + "/backend"); v != bp {
		t.Fatalf("frontend backend pointer = %q", v)
	}
	if v, _ := st.Read(bp + "/frontend"); v != fp {
		t.Fatalf("backend frontend pointer = %q", v)
	}
	if v, _ := st.Read(fp + "/mac"); v != "00:16:3e:00:00:01" {
		t.Fatal("front extra key missing")
	}
	if v, _ := st.Read(bp + "/bridge"); v != "xenbr0" {
		t.Fatal("back extra key missing")
	}
	if b.State(fp) != StateInitialising || b.State(bp) != StateInitialising {
		t.Fatal("device ends not Initialising")
	}
	if other, ok := b.OtherEnd(fp); !ok || other != bp {
		t.Fatalf("OtherEnd(front) = %q,%v", other, ok)
	}
	if other, ok := b.OtherEnd(bp); !ok || other != fp {
		t.Fatalf("OtherEnd(back) = %q,%v", other, ok)
	}
}

func TestStateMachineLegalPath(t *testing.T) {
	_, b := newBus()
	fp, _ := b.AddDevice(DeviceSpec{Type: "vbd", FrontDom: 2, BackDom: 1, DevID: 51712})
	for _, s := range []State{StateInitialised, StateConnected, StateClosing, StateClosed} {
		if err := b.SwitchState(fp, s); err != nil {
			t.Fatalf("transition to %v: %v", s, err)
		}
	}
	// Reconnect after close is legal (driver domain restart).
	if err := b.SwitchState(fp, StateInitialising); err != nil {
		t.Fatalf("reconnect: %v", err)
	}
}

func TestStateMachineRejectsIllegal(t *testing.T) {
	_, b := newBus()
	fp, _ := b.AddDevice(DeviceSpec{Type: "vif", FrontDom: 2, BackDom: 1, DevID: 0})
	if err := b.SwitchState(fp, StateConnected); err != nil {
		t.Fatalf("Initialising->Connected should be allowed: %v", err)
	}
	if err := b.SwitchState(fp, StateInitialised); err == nil {
		t.Fatal("Connected->Initialised allowed")
	}
	b.SwitchState(fp, StateClosed)
	if err := b.SwitchState(fp, StateConnected); err == nil {
		t.Fatal("Closed->Connected allowed")
	}
}

func TestSwitchStateSameStateIdempotent(t *testing.T) {
	_, b := newBus()
	fp, _ := b.AddDevice(DeviceSpec{Type: "vif", FrontDom: 2, BackDom: 1, DevID: 0})
	if err := b.SwitchState(fp, StateInitialising); err != nil {
		t.Fatalf("same-state switch errored: %v", err)
	}
}

func TestOnStateChange(t *testing.T) {
	eng, b := newBus()
	fp, bp := b.AddDevice(DeviceSpec{Type: "vif", FrontDom: 2, BackDom: 1, DevID: 0})
	var seen []State
	b.OnStateChange(bp, func(s State) { seen = append(seen, s) })
	eng.Run() // registration fire observes Initialising
	b.SwitchState(bp, StateInitWait)
	eng.Run()
	b.SwitchState(bp, StateConnected)
	eng.Run()
	want := []State{StateInitialising, StateInitWait, StateConnected}
	if len(seen) != len(want) {
		t.Fatalf("state sequence = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("state sequence = %v, want %v", seen, want)
		}
	}
	_ = fp
}

func TestTwoEndHandshake(t *testing.T) {
	// Model the full frontend/backend negotiation dance driven purely by
	// watches, the way the real drivers do it.
	eng, b := newBus()
	fp, bp := b.AddDevice(DeviceSpec{Type: "vif", FrontDom: 2, BackDom: 1, DevID: 0})

	// Backend reacts to frontend states.
	b.OnStateChange(fp, func(s State) {
		switch s {
		case StateInitialising:
			b.SwitchState(bp, StateInitWait)
		case StateInitialised:
			// read ring refs etc., then connect
			b.SwitchState(bp, StateConnected)
		}
	})
	// Frontend reacts to backend states.
	b.OnStateChange(bp, func(s State) {
		switch s {
		case StateInitWait:
			b.Store().Write(fp+"/tx-ring-ref", "8")
			b.Store().Write(fp+"/rx-ring-ref", "9")
			b.SwitchState(fp, StateInitialised)
		case StateConnected:
			b.SwitchState(fp, StateConnected)
		}
	})
	if !eng.RunCapped(10000) {
		t.Fatal("handshake livelocked")
	}
	if b.State(fp) != StateConnected || b.State(bp) != StateConnected {
		t.Fatalf("final states front=%v back=%v, want Connected", b.State(fp), b.State(bp))
	}
	if v, ok := b.Store().Read(fp + "/tx-ring-ref"); !ok || v != "8" {
		t.Fatal("negotiated keys lost")
	}
}

func TestRemoveDevice(t *testing.T) {
	_, b := newBus()
	spec := DeviceSpec{Type: "vif", FrontDom: 2, BackDom: 1, DevID: 0}
	fp, bp := b.AddDevice(spec)
	b.RemoveDevice(spec)
	if b.Store().Exists(fp) || b.Store().Exists(bp) {
		t.Fatal("device dirs survived removal")
	}
	if b.State(fp) != StateUnknown {
		t.Fatal("removed device has a state")
	}
}

func TestFeatures(t *testing.T) {
	_, b := newBus()
	_, bp := b.AddDevice(DeviceSpec{Type: "vbd", FrontDom: 2, BackDom: 1, DevID: 0})
	b.WriteFeature(bp, "feature-persistent", true)
	b.WriteFeature(bp, "feature-flush-cache", false)
	if !b.ReadFeature(bp, "feature-persistent") {
		t.Fatal("enabled feature reads false")
	}
	if b.ReadFeature(bp, "feature-flush-cache") {
		t.Fatal("disabled feature reads true")
	}
	if b.ReadFeature(bp, "feature-absent") {
		t.Fatal("absent feature reads true")
	}
}

func TestStateStrings(t *testing.T) {
	if StateConnected.String() != "Connected" {
		t.Fatal("state name wrong")
	}
	if !strings.Contains(State(42).String(), "42") {
		t.Fatal("unknown state string unhelpful")
	}
}

// TestAddDeviceWritesExtrasInKeyOrder pins the order of the toolstack's
// store writes: each one fires watches, so the order is part of the event
// timeline and may not follow map iteration. It relies on the same-instant
// FIFO contract stated at Bus.writeExtras.
func TestAddDeviceWritesExtrasInKeyOrder(t *testing.T) {
	extras := map[string]string{"tenant-lane": "3", "bridge": "xenbr0", "script": "vif-bridge", "handle": "0", "type": "vif"}
	for round := 0; round < 20; round++ {
		eng, b := newBus()
		var seen []string
		b.Store().Watch(BackendRoot(1, "vif"), "", func(path, _ string) {
			seen = append(seen, path[strings.LastIndexByte(path, '/')+1:])
		})
		b.AddDevice(DeviceSpec{Type: "vif", FrontDom: 3, BackDom: 1, BackExtra: extras})
		eng.Run()
		want := "vif frontend frontend-id online state bridge handle script tenant-lane type"
		if got := strings.Join(seen, " "); got != want {
			t.Fatalf("round %d: back-end writes fired as %q, want %q", round, got, want)
		}
	}
}

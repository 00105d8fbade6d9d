// Package xenbus implements the Xen device negotiation protocol on top of
// xenstore: the device directory layout libxl creates when a PV device is
// added to a guest, the XenbusState machine both ends walk
// (Initialising → InitWait → Initialised → Connected → Closing → Closed),
// and watch helpers for reacting to the other end's transitions.
//
// This is the layer Kite had to add to rumprun's HVM mode (Table 1's "HVM
// extension" row): without it, no backend can discover or pair with a
// frontend.
//
// Every store write made here fires watches, and each fire is a simulation
// event: the order of writes is part of the timeline.
package xenbus

import (
	"fmt"
	"sort"

	"kite/internal/xenstore"
)

// DomID aliases the store's domain ID type.
type DomID = xenstore.DomID

// State is the XenbusState of one end of a device.
type State int

// XenbusState values, matching xen/io/xenbus.h.
const (
	StateUnknown      State = 0
	StateInitialising State = 1
	StateInitWait     State = 2
	StateInitialised  State = 3
	StateConnected    State = 4
	StateClosing      State = 5
	StateClosed       State = 6
)

var stateNames = map[State]string{
	StateUnknown:      "Unknown",
	StateInitialising: "Initialising",
	StateInitWait:     "InitWait",
	StateInitialised:  "Initialised",
	StateConnected:    "Connected",
	StateClosing:      "Closing",
	StateClosed:       "Closed",
}

func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// validNext encodes the legal transitions of the xenbus state machine.
// Any state may transition to Closing/Closed (device teardown or crash).
func validNext(from, to State) bool {
	if to == StateClosing || to == StateClosed {
		return true
	}
	switch from {
	case StateUnknown:
		return to == StateInitialising
	case StateInitialising:
		return to == StateInitWait || to == StateInitialised || to == StateConnected
	case StateInitWait:
		return to == StateInitialised || to == StateConnected
	case StateInitialised:
		return to == StateConnected
	case StateConnected:
		return false
	case StateClosing:
		return false
	case StateClosed:
		return to == StateInitialising // reconnect after close
	}
	return false
}

// FrontendPath returns the xenstore directory of a frontend device.
func FrontendPath(frontDom DomID, typ string, devid int) string {
	return fmt.Sprintf("/local/domain/%d/device/%s/%d", frontDom, typ, devid)
}

// BackendPath returns the xenstore directory of a backend device instance.
func BackendPath(backDom DomID, typ string, frontDom DomID, devid int) string {
	return fmt.Sprintf("/local/domain/%d/backend/%s/%d/%d", backDom, typ, frontDom, devid)
}

// BackendRoot returns the directory a backend watches for new frontends of
// one device type (§4.1's watch path).
func BackendRoot(backDom DomID, typ string) string {
	return fmt.Sprintf("/local/domain/%d/backend/%s", backDom, typ)
}

// TenantPath returns the per-tenant subtree under a driver domain
// (/local/domain/<backDom>/tenant/<frontDom>). Nothing in the product
// writes it: the driver's pairings are the record of who is attached.
func TenantPath(backDom, frontDom DomID) string {
	return fmt.Sprintf("/local/domain/%d/%s/%d", backDom, xenstore.KeyTenantRoot, frontDom)
}

// Bus wraps a store with device-protocol helpers.
type Bus struct {
	store *xenstore.Store
}

// New returns a Bus over the given store.
func New(store *xenstore.Store) *Bus { return &Bus{store: store} }

// Store exposes the underlying xenstore.
func (b *Bus) Store() *xenstore.Store { return b.store }

// DeviceSpec describes one PV device connection to create.
type DeviceSpec struct {
	Type     string // "vif" or "vbd"
	FrontDom DomID
	BackDom  DomID
	DevID    int
	// Extra keys written into the frontend/backend directories at creation
	// (e.g. mac for vifs, virtual-device for vbds).
	FrontExtra map[string]string
	BackExtra  map[string]string
}

// AddDevice creates the xenstore skeleton for a device pair — what the
// toolstack (xl) does for `vif=[...]` / `disk=[...]` config stanzas — and
// returns the two device paths. Both ends start Initialising.
func (b *Bus) AddDevice(spec DeviceSpec) (frontPath, backPath string) {
	frontPath = FrontendPath(spec.FrontDom, spec.Type, spec.DevID)
	backPath = BackendPath(spec.BackDom, spec.Type, spec.FrontDom, spec.DevID)

	b.store.Writef(frontPath+"/"+xenstore.KeyBackend, "%s", backPath)
	b.store.Writef(frontPath+"/"+xenstore.KeyBackendID, "%d", spec.BackDom)
	b.store.Writef(frontPath+"/"+xenstore.KeyState, "%d", int(StateInitialising))
	b.writeExtras(frontPath, spec.FrontExtra)

	b.store.Writef(backPath+"/"+xenstore.KeyFrontend, "%s", frontPath)
	b.store.Writef(backPath+"/"+xenstore.KeyFrontendID, "%d", spec.FrontDom)
	b.store.Writef(backPath+"/"+xenstore.KeyOnline, "1")
	b.store.Writef(backPath+"/"+xenstore.KeyState, "%d", int(StateInitialising))
	b.writeExtras(backPath, spec.BackExtra)

	// Device directories belong to their respective domains.
	b.store.SetPerms(frontPath, spec.FrontDom, nil)
	b.store.SetPerms(backPath, spec.BackDom, nil)
	return frontPath, backPath
}

// writeExtras writes a device directory's extra keys in sorted key order:
// each write fires watches, so map order would leak into event order.
// Same-instant FIFO contract: the writes' fires land at one instant and run
// in key order only because the engine runs same-instant events in the
// order they were scheduled.
func (b *Bus) writeExtras(devPath string, extra map[string]string) {
	keys := make([]string, 0, len(extra))
	for k := range extra { //kite:orderok keys are sorted before use
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.store.Write(devPath+"/"+k, extra[k])
	}
}

// RemoveDevice deletes both ends' directories.
func (b *Bus) RemoveDevice(spec DeviceSpec) {
	_ = b.store.Remove(FrontendPath(spec.FrontDom, spec.Type, spec.DevID))
	_ = b.store.Remove(BackendPath(spec.BackDom, spec.Type, spec.FrontDom, spec.DevID))
}

// State reads the state key of a device directory.
func (b *Bus) State(devPath string) State {
	v, ok := b.store.ReadInt(devPath + "/" + xenstore.KeyState)
	if !ok {
		return StateUnknown
	}
	return State(v)
}

// SwitchState transitions a device end, enforcing protocol legality.
func (b *Bus) SwitchState(devPath string, to State) error {
	from := b.State(devPath)
	if from == to {
		return nil
	}
	if !validNext(from, to) {
		return fmt.Errorf("xenbus: illegal transition %v -> %v at %s", from, to, devPath)
	}
	b.store.Writef(devPath+"/"+xenstore.KeyState, "%d", int(to))
	return nil
}

// OnStateChange invokes fn with the device's state whenever its directory
// changes (including the registration fire). Returns the watch for
// cancellation.
func (b *Bus) OnStateChange(devPath string, fn func(State)) *xenstore.Watch {
	return b.store.Watch(devPath+"/"+xenstore.KeyState, devPath, func(_, _ string) {
		fn(b.State(devPath))
	})
}

// OtherEnd resolves the opposite end's device path (via the backend or
// frontend pointer key).
func (b *Bus) OtherEnd(devPath string) (string, bool) {
	if v, ok := b.store.Read(devPath + "/" + xenstore.KeyBackend); ok {
		return v, true
	}
	if v, ok := b.store.Read(devPath + "/" + xenstore.KeyFrontend); ok {
		return v, true
	}
	return "", false
}

// QueuePath returns the per-queue subdirectory of a device directory
// ("<devPath>/queue-<q>").
func QueuePath(devPath string, q int) string {
	return fmt.Sprintf("%s/queue-%d", devPath, q)
}

// WriteNumQueues publishes the frontend's negotiated queue count.
func (b *Bus) WriteNumQueues(devPath string, n int) {
	b.store.Writef(devPath+"/"+xenstore.KeyMultiQueueNumQueues, "%d", n)
}

// ReadNumQueues reads a negotiated/advertised queue-count key from a device
// directory; absent (a pre-multi-queue peer) means 1.
func (b *Bus) ReadNumQueues(devPath, key string) int {
	n, ok := b.store.ReadInt(devPath + "/" + key)
	if !ok || n < 1 {
		return 1
	}
	return int(n)
}

// WriteFeature publishes a feature key (feature-X=1 style) in a device dir.
func (b *Bus) WriteFeature(devPath, name string, enabled bool) {
	v := "0"
	if enabled {
		v = "1"
	}
	b.store.Write(devPath+"/"+name, v)
}

// ReadFeature reads a feature key; absent means false.
func (b *Bus) ReadFeature(devPath, name string) bool {
	v, ok := b.store.ReadInt(devPath + "/" + name)
	return ok && v != 0
}

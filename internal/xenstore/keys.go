package xenstore

// This file is the single registry of xenstore key names used by the
// device negotiation protocol. Every path or key argument handed to a
// Store or xenbus.Bus method is assembled from these constants (plus bare
// "/" separators and computed path segments). The point is typo immunity:
// "event-chanel" in a literal compiles and stalls the handshake — which
// every rig test then fails on — while a misspelled constant name fails
// the build.
//
// Names mirror xen/io/xenbus.h, netif.h and blkif.h so traces read like
// real xenstore dumps.

// Device types, the <type> segment of device directories.
const (
	DevVif = "vif" // paravirtual network device
	DevVbd = "vbd" // paravirtual block device
)

// Keys shared by every device directory (xenbus handshake layout).
const (
	KeyFrontend   = "frontend"    // backend dir → frontend dir path
	KeyFrontendID = "frontend-id" // backend dir → owning guest domid
	KeyBackend    = "backend"     // frontend dir → backend dir path
	KeyBackendID  = "backend-id"  // frontend dir → serving domid
	KeyState      = "state"       // XenbusState of this end
	KeyOnline     = "online"      // toolstack keeps the backend alive
)

// Ring/event plumbing keys written by frontends during connect.
const (
	KeyEventChannel = "event-channel" // evtchn port of the shared ring
	KeyRingRef      = "ring-ref"      // blkif single ring grant ref
	KeyTxRingRef    = "tx-ring-ref"   // netif transmit ring grant ref
	KeyRxRingRef    = "rx-ring-ref"   // netif receive ring grant ref
	KeyProtocol     = "protocol"      // blkif ABI name
)

// vif-specific keys.
const (
	KeyMac           = "mac"             // guest MAC, written by the toolstack
	KeyBridge        = "bridge"          // dom0/driver-domain bridge to attach to
	KeyFeatureRxCopy = "feature-rx-copy" // backend copies into guest rx buffers
	KeyRequestRxCopy = "request-rx-copy" // frontend asks for rx-copy mode
)

// vbd-specific keys.
const (
	KeySectors            = "sectors"                       // disk size in sectors
	KeySectorSize         = "sector-size"                   // logical sector bytes
	KeyParams             = "params"                        // backend image/device spec
	KeyFeatureFlushCache  = "feature-flush-cache"           // backend honors flush
	KeyFeaturePersistent  = "feature-persistent"            // persistent-grant support
	KeyFeatureMaxIndirect = "feature-max-indirect-segments" // indirect descriptor cap
)

// Tenant keys. KeyTenantLane is the toolstack's lane hint in a fleet
// tenant's backend directory: the driver serves the device on that lane
// (mod the lane count). KeyTenantRoot and KeyTenantVifs name a per-tenant
// path (xenbus.TenantPath) only the xenstore transaction benchmark writes.
const (
	KeyTenantRoot = "tenant" // subtree root under the driver domain
	KeyTenantVifs = "vifs"   // live vif count for this tenant
	KeyTenantLane = "lane"   // fleet service lane index
)

// Multi-queue negotiation keys, mirroring xen/io/netif.h: the backend
// advertises KeyMultiQueueMaxQueues, the frontend answers with
// KeyMultiQueueNumQueues and moves its rings into per-queue "queue-N/"
// subdirectories. KeyMultiQueueHashSeed carries the frontend's RSS
// Toeplitz seed so both ends steer a flow to the same queue.
const (
	KeyMultiQueueMaxQueues = "multi-queue-max-queues"
	KeyMultiQueueNumQueues = "multi-queue-num-queues"
	KeyMultiQueueHashSeed  = "multi-queue-hash-seed"
)

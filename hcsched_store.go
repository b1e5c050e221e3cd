package hcsched

import "repro/internal/store"

// Tiered result store (see internal/store and schedd -store): a crash-safe
// on-disk second tier behind the serving layer's LRU, keyed by canonical
// request key and holding marshaled response bodies verbatim. A restarted
// daemon answers previously computed requests from disk — byte-identical,
// X-Schedd-Cache: disk — instead of recomputing them cold. Append-only
// segment files; an in-memory index of 8-byte key fingerprints that
// answers every miss with zero disk reads, so a hit costs one
// key-verified read; and recovery that truncates a torn tail rather than
// ever serving it.
type (
	// ResultStore is the crash-safe on-disk body store. It satisfies the
	// serve layer's store interface: set it as ServeOptions.Store to wire
	// it under the LRU as a read-through/write-behind second tier.
	ResultStore = store.Store
	// ResultStoreOptions configures a ResultStore; the zero value uses
	// default segment size over the real filesystem.
	ResultStoreOptions = store.Options
	// ResultStoreStats is a point-in-time snapshot of store state and
	// counters (keys, segments, recovered bytes, index misses, reads,
	// health transitions and quarantined records).
	ResultStoreStats = store.Stats
	// ResultStoreHealth is the store's health state machine position:
	// healthy → degraded (write errors or a full disk; read-only, writes
	// pass only as request-counted probes) → offline (read errors; consults
	// gated to probes). The serving layer degrades to memory-only serving
	// on anything below healthy — never a client-visible error.
	ResultStoreHealth = store.Health
	// ResultStoreFS is the filesystem seam under a ResultStore: open, read,
	// write, sync. The default is the real OS filesystem; tests and chaos
	// harnesses mount a ResultStoreFaultFS instead.
	ResultStoreFS = store.FS
	// ResultStoreFile is one store segment file behind the seam.
	ResultStoreFile = store.File
	// ResultStoreFaultSpec configures seeded, deterministic I/O fault
	// injection for the seam (grammar:
	// seed=N,readerr=P,writeerr=P,syncerr=P,shortwrite=P,enospc=BYTES).
	ResultStoreFaultSpec = store.FaultSpec
	// ResultStoreFaultFS wraps a ResultStoreFS in the fault injector; every
	// decision flows from the spec seed, so fault schedules replay exactly.
	ResultStoreFaultFS = store.FaultFS
)

// Health states for ResultStoreHealth: the store recovers upward only
// through successful request-counted probes (a read probe proves offline →
// degraded, an append probe proves degraded → healthy); wall clock never
// participates.
const (
	ResultStoreHealthy  = store.Healthy
	ResultStoreDegraded = store.Degraded
	ResultStoreOffline  = store.Offline
)

// OpenResultStore opens (or creates) a result store rooted at dir,
// replaying and validating its segments: whole records survive, a torn
// tail is truncated. Close flushes and releases it; pair every Open with a
// Close after the owning Server has drained.
func OpenResultStore(dir string, opts ResultStoreOptions) (*ResultStore, error) {
	return store.Open(dir, opts)
}

// ParseResultStoreFaultSpec parses the disk fault-injection grammar
// (seed=N,readerr=P,writeerr=P,syncerr=P,shortwrite=P,enospc=BYTES) used by
// schedd -store-fault-inject and the disk chaos scenarios.
func ParseResultStoreFaultSpec(s string) (ResultStoreFaultSpec, error) {
	return store.ParseFaultSpec(s)
}

// NewResultStoreFaultFS mounts the seeded fault injector over inner (nil
// means the real OS filesystem). Set the result as
// ResultStoreOptions.FS to run a store on a deterministically sick disk:
// faults withhold or tear I/O, never alter stored bytes, and one seed
// replays one fault schedule exactly.
func NewResultStoreFaultFS(inner ResultStoreFS, spec ResultStoreFaultSpec) *ResultStoreFaultFS {
	return store.NewFaultFS(inner, spec)
}

package serve

// The disk result tier: a crash-safe second cache level behind the LRU
// (internal/store implements it; the interface lives here so serve depends
// only on the contract). Reads are on the request path — an LRU miss
// consults the store under a disk_lookup stage span before any compute is
// queued, and a disk hit is promoted into the LRU and served with
// X-Schedd-Cache: disk. Writes are behind the request path: workers enqueue
// computed bodies onto a bounded channel drained by one writer goroutine,
// so a slow disk can delay durability but never a response. Drain flushes
// the channel after the worker pool exits, so every computed body reaches
// the store before the caller closes it.

// ResultStore is the contract for the disk tier. Implementations must be
// safe for concurrent use and must return bodies byte-identical to what Put
// stored — the serving layer's byte-identity invariant extends through
// restarts only if the store is verbatim.
type ResultStore interface {
	// Get returns the stored body for a canonical request key. ok reports
	// presence; err is an I/O failure (treated as a miss by the server,
	// counted in serve.disk_read_errors).
	Get(key string) ([]byte, bool, error)
	// Put durably appends the body for a key. Duplicate keys may be
	// skipped: bodies are deterministic in their key. A failure costs one
	// future recompute, counted in serve.disk_write_errors.
	Put(key string, body []byte) error
}

// TierHealth is the optional health contract a ResultStore may additionally
// satisfy (store.Store does). When it does, the server degrades gracefully
// instead of hammering a sick disk: ConsultRead gates the read-through
// consult (false skips disk_lookup entirely — no span, no I/O — counted in
// serve.disk_skipped), ConsultWrite gates each write-behind append (false
// drops it, counted in serve.disk_write_drops), and HealthState feeds the
// serve.disk_health gauge and /statusz. Implementations must keep the
// gating request-counted, never clock-based, so degradation and recovery
// replay deterministically.
type TierHealth interface {
	ConsultRead() bool
	ConsultWrite() bool
	HealthState() string
}

// storeQueueDepth bounds the write-behind channel. Overflow drops the write
// (counted in serve.disk_write_drops) rather than stalling a worker: a
// dropped write costs one future recompute, never correctness.
const storeQueueDepth = 256

// storeWrite is one pending write-behind append.
type storeWrite struct {
	key  string
	body []byte
}

// storeEnqueue hands a computed body to the writer goroutine without
// blocking the worker. No-op when no store is configured.
func (s *Server) storeEnqueue(key string, body []byte) {
	if s.storeQ == nil {
		return
	}
	select {
	case s.storeQ <- storeWrite{key: key, body: body}:
	default:
		s.mDiskDrops.Inc()
	}
}

// storeWriter drains the write-behind channel until it is closed (by Drain,
// after the worker pool has exited), then signals storeDone. When the store
// reports health, each append first passes the ConsultWrite gate: a
// degraded/offline disk sees only its probe quota and every other pending
// write is dropped (counted) — a drop costs one future recompute, never
// correctness, and never a client-visible error.
func (s *Server) storeWriter() {
	defer close(s.storeDone)
	for w := range s.storeQ {
		if s.tierHealth != nil && !s.tierHealth.ConsultWrite() {
			s.mDiskDrops.Inc()
			s.noteDiskHealth()
			continue
		}
		if err := s.store.Put(w.key, w.body); err != nil {
			s.mDiskWriteErrors.Inc()
			s.noteDiskHealth()
			continue
		}
		s.mDiskWrites.Inc()
		s.noteDiskHealth()
	}
}

// consultDisk reports whether resolve should consult the disk tier for this
// request. Health-blind stores always consult; a health-aware store that
// answers "don't" (offline, between probes) is skipped entirely — the
// request falls through to compute/memory byte-identically.
func (s *Server) consultDisk() bool {
	if s.tierHealth == nil {
		return true
	}
	if s.tierHealth.ConsultRead() {
		return true
	}
	s.mDiskSkipped.Inc()
	s.noteDiskHealth()
	return false
}

// noteDiskHealth refreshes the serve.disk_health gauge (0 healthy,
// 1 degraded, 2 offline) after a disk op or gate decision. Wall-clock-free
// and observational only.
func (s *Server) noteDiskHealth() {
	if s.tierHealth == nil {
		return
	}
	s.gDiskHealth.Set(diskHealthLevel(s.tierHealth.HealthState()))
}

// diskHealthLevel maps a TierHealth state name onto the gauge scale.
func diskHealthLevel(state string) float64 {
	switch state {
	case "healthy":
		return 0
	case "degraded":
		return 1
	case "offline":
		return 2
	default:
		return -1
	}
}

// drainStore closes the write-behind channel and waits for the writer to
// flush. Must only run after the worker pool has exited (workers are the
// only senders). Idempotent.
func (s *Server) drainStore() {
	if s.storeQ == nil {
		return
	}
	s.storeStop.Do(func() { close(s.storeQ) })
	<-s.storeDone
}

package cluster

import (
	"crypto/sha256"
	"sync"

	"repro/internal/serve"
)

// memoCap bounds each route memo. A full memo is cleared, not evicted
// entry by entry: a hot set that fits stays resident, and the worst case
// is one re-derivation per body after each clear. An entry is a 32-byte
// digest and an 8-byte hash; Go's map stores them in 1024-slot tables kept
// at most 7/8 full, and this cap sits about 10% under what eight such
// tables hold, so a full memo stays near 60 B per entry — about 390 KB
// (TestRouteMemoBytesPerEntry pins the 64 B bound).
const memoCap = 6400

// itemNS is the route memo namespace of batch items; the singleton
// endpoints use their paths.
const itemNS = "item"

// routeMemo remembers the route of request bodies the gateway has keyed
// before: the SHA-256 digest of the exact bytes maps to the KeyHash the
// slow path derived from those same bytes, so a repeat body skips the
// decode behind serve.CanonicalKey. Keying by digest rather than by body
// keeps an entry small whatever the body size. A digest collision could at
// worst send a request to another backend, which still computes from the
// exact forwarded bytes — response bytes cannot change.
//
// Only canonical routes are recorded: a body without a canonical key
// routes by its raw bytes on every arrival, and the backend answers it
// with an error envelope anyway.
type routeMemo struct {
	// ns is the endpoint path (or itemNS) whose bodies the memo routes.
	ns string

	mu sync.Mutex
	m  map[[sha256.Size]byte]uint64
}

func newRouteMemo(ns string) *routeMemo {
	return &routeMemo{ns: ns, m: make(map[[sha256.Size]byte]uint64)}
}

// canonicalKey derives body's canonical key the way a backend would.
func (m *routeMemo) canonicalKey(body []byte) (string, bool) {
	if m.ns == itemNS {
		return serve.BatchItemKey(body)
	}
	return serve.CanonicalKey(m.ns, body)
}

// keyHash returns the routing hash for body: KeyHash of its canonical key,
// or of its raw route key when it has none. hit reports a memo hit.
func (m *routeMemo) keyHash(body []byte) (kh uint64, hit bool) {
	d := sha256.Sum256(body)
	m.mu.Lock()
	kh, hit = m.m[d]
	m.mu.Unlock()
	if hit {
		return kh, true
	}
	key, canonical := m.canonicalKey(body)
	if !canonical {
		return KeyHash(RawRouteKey(m.ns, body)), false
	}
	kh = KeyHash(key)
	m.mu.Lock()
	if len(m.m) >= memoCap {
		clear(m.m)
	}
	m.m[d] = kh
	m.mu.Unlock()
	return kh, false
}

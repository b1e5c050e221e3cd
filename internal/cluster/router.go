// Package cluster implements the deterministic sharded gateway layer: a
// rendezvous-hashing router over N schedd backends, an HTTP gateway that
// routes singleton and batch requests by canonical request key, and an
// in-process multi-backend substrate for tests, benchmarks and chaos
// scenarios.
//
// The subsystem's headline invariant: a cluster of N backends returns
// byte-identical response bodies to a single instance for every request —
// cache hit, miss, coalesced, or failed-over — under fault injection and
// backend loss. Routing concentrates each key on one backend (warm cache),
// but never changes what any backend computes.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/obs"
)

// Router assigns keys to named members by rendezvous (highest-random-weight)
// hashing: every member scores every key, the highest score wins. The
// properties the gateway leans on all fall out of the construction:
//
//   - determinism: scores depend only on (member name, key), so the same
//     members and key always pick the same winner — across processes,
//     restarts and replicas;
//   - minimal disruption: removing a member only remaps the keys it owned
//     (every other key's winner still scores highest among the survivors);
//   - balance: the mixed scores are uniform, so ownership splits evenly;
//   - failover order: sorting members by score gives each key a full
//     deterministic preference order, not just a winner — the gateway walks
//     it when backends are unreachable.
//
// A Router is immutable after construction and safe for concurrent use.
type Router struct {
	names  []string // sorted, for deterministic iteration and tie-breaks
	hashes []uint64 // KeyHash(names[i])
}

// NewRouter builds a Router over the given member names. Names must be
// non-empty and unique; order is irrelevant (the router sorts internally,
// so any permutation of the same membership is the same router).
func NewRouter(names []string) (*Router, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("cluster: router needs at least one member")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	r := &Router{names: sorted, hashes: make([]uint64, len(sorted))}
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate member name %q", n)
		}
		r.hashes[i] = KeyHash(n)
	}
	return r, nil
}

// Members returns the member names in sorted order. The slice is shared;
// callers must not modify it.
func (r *Router) Members() []string { return r.names }

// KeyHash returns the 64-bit FNV-1a hash of key — the only part of a key
// the router's scoring consumes. Exposed so observers (chaos invariants,
// trace correlation) can verify routing decisions from a key hash without
// ever materializing the raw key. It is obs.KeyHash, the hash half of a
// trace ID, so a route and its trace share one key hash.
func KeyHash(key string) uint64 { return obs.KeyHash(key) }

// Pick returns the owning member for key: the rendezvous winner among the
// current membership.
func (r *Router) Pick(key string) string { return r.PickHash(KeyHash(key)) }

// PickHash is Pick for a pre-computed KeyHash.
func (r *Router) PickHash(kh uint64) string {
	best, bestScore := 0, mix64(r.hashes[0]^kh)
	for i := 1; i < len(r.hashes); i++ {
		// Strict > keeps the lexicographically smallest name on score ties
		// (names are sorted), making the tie-break explicit.
		if s := mix64(r.hashes[i] ^ kh); s > bestScore {
			best, bestScore = i, s
		}
	}
	return r.names[best]
}

// Rank returns every member ordered by descending score for key: Rank[0]
// is the owner (== Pick), Rank[1] the first failover, and so on. The
// returned slice is freshly allocated.
func (r *Router) Rank(key string) []string { return r.RankHash(KeyHash(key)) }

// RankHash is Rank for a pre-computed KeyHash.
func (r *Router) RankHash(kh uint64) []string {
	out := make([]string, len(r.names))
	var buf [8]uint64 // clusters this size rank without a second allocation
	scores := buf[:]
	if len(r.names) > len(buf) {
		scores = make([]uint64, len(r.names))
	}
	// Insertion sort by descending score. Members arrive in sorted-name
	// order and an entry moves past only strictly lower scores, so score
	// ties resolve to lexicographic order, same as Pick.
	for i, h := range r.hashes {
		s := mix64(h ^ kh)
		j := i
		for ; j > 0 && scores[j-1] < s; j-- {
			scores[j], out[j] = scores[j-1], out[j-1]
		}
		scores[j], out[j] = s, r.names[i]
	}
	return out
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer that turns
// the xor of two FNV hashes into a uniformly distributed score. Bijectivity
// matters — distinct (member, key) pairs cannot collapse onto one score
// except by genuine 64-bit collision.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

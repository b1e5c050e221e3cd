package serve

import (
	"container/list"
	"sync"
)

// Raw-alias limits: a cache entry indexes at most maxRawAliases distinct
// raw request bodies (clients with many formatting variants of one request
// fall back to the parse path, they don't grow the index unboundedly), and
// only bodies up to maxRawAliasBytes are indexed (a huge body's parse cost
// is dwarfed by its compute anyway).
const (
	maxRawAliases    = 8
	maxRawAliasBytes = 64 << 10
	rawKeySingleton  = 's' // raw key namespace: whole singleton bodies
	rawKeyBatchItem  = 'b' // raw key namespace: batch item extents
	rawKeyBatchEnv   = 'B' // raw key namespace: whole batch bodies → envelopes
	rawKeySeparator  = 0
)

// entryMeta is the request summary stored beside a cached body so the
// raw-alias fast path can emit a complete request_done event without
// parsing the request.
type entryMeta struct {
	heuristic string
	seed      uint64
	tasks     int
	machines  int
	// items is the item count of a cached batch envelope (rawKeyBatchEnv
	// namespace); zero for singleton bodies.
	items int
}

// lru is a mutex-guarded least-recently-used cache from exact request keys
// to response bodies. Keys are the full canonical encoding of the request
// (see cacheKey), not a digest: a collision would hand one request another
// request's bytes, so exactness is an invariant, bought with a few KiB per
// entry.
//
// In front of the canonical index sits a raw-body alias index: the exact
// bytes of a request body that previously parsed to a canonical key map
// straight to that key's entry. A repeat of byte-identical traffic (the
// dominant cache-hit shape) then resolves with one map lookup and zero
// parsing — the allocation-free hit path. Aliases are exact byte strings in
// disjoint namespaces (singleton bodies vs batch item extents), so two
// different bodies can never share an alias; they are evicted with their
// entry.
type lru struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used; values are *lruEntry
	entries map[string]*list.Element
	raw     map[string]*list.Element
}

// cached is what a cache hit hands back, by value: the shared body, its
// Content-Length header value (built once, when the body entered the
// cache, so a hit of any size writes its framing without allocating), the
// canonical key and the request summary.
type cached struct {
	body []byte
	clen []string
	key  string
	meta entryMeta
}

type lruEntry struct {
	cached
	raws []string // raw alias keys pointing at this entry
}

// newLRU returns a cache holding at most max entries (max >= 1).
func newLRU(max int) *lru {
	return &lru{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element, max),
		raw:     make(map[string]*list.Element, max),
	}
}

// get returns the cached entry for key and marks it most recently used.
// The returned body and header slices are shared and must not be mutated.
func (c *lru) get(key string) (cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return cached{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).cached, true
}

// getRaw resolves a raw-body alias key (built in a caller-owned scratch
// buffer; the map lookup on string(rawKey) does not allocate). On a hit it
// returns the entry — shared body, canonical key (for trace identity) and
// request summary — and marks it most recently used.
func (c *lru) getRaw(rawKey []byte) (cached, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.raw[string(rawKey)]
	if !ok {
		return cached{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).cached, true
}

// add stores body under key, evicting the least recently used entry (and
// its raw aliases) when full. Re-adding an existing key refreshes its
// recency; the body is identical by construction (responses are
// deterministic in the key), so concurrent duplicate computations are
// harmless.
func (c *lru) add(key string, body []byte, meta entryMeta) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.max {
		oldest := c.order.Back()
		if oldest != nil {
			c.order.Remove(oldest)
			e := oldest.Value.(*lruEntry)
			delete(c.entries, e.key)
			for _, rk := range e.raws {
				delete(c.raw, rk)
			}
		}
	}
	c.entries[key] = c.order.PushFront(&lruEntry{cached: cached{
		body: body, clen: contentLength(body), key: key, meta: meta,
	}})
}

// alias registers rawKey as a raw-body alias of the canonical key's entry.
// It no-ops when the entry is gone (evicted, or caching of the computation
// failed), the alias already exists, or the entry is at its alias cap.
func (c *lru) alias(rawKey []byte, key string) {
	if len(rawKey) > maxRawAliasBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.raw[string(rawKey)]; ok {
		return
	}
	el, ok := c.entries[key]
	if !ok {
		return
	}
	e := el.Value.(*lruEntry)
	if len(e.raws) >= maxRawAliases {
		return
	}
	rk := string(rawKey)
	e.raws = append(e.raws, rk)
	c.raw[rk] = el
}

// len returns the number of cached entries.
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

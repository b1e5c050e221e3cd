package serve

import (
	"container/list"
	"strings"
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
)

// Raw-key namespace heads: a raw alias key is one of these followed by the
// exact request bytes, so whole singleton bodies (per endpoint, see
// rawHeadSingleton), batch item extents and whole batch bodies can never
// share a key.
const (
	rawHeadBatchItem = "b\x00" // batch item extents
	rawHeadBatchEnv  = "B\x00" // whole batch bodies → envelopes
)

// rawHeadSingleton is the namespace head of whole singleton bodies posted
// to ep.
func rawHeadSingleton(ep endpoint) string { return "s\x00" + string(ep) + "\x00" }

// rawAlias names a request's exact bytes under a raw-key namespace without
// copying them: the alias key is head followed by body.
type rawAlias struct {
	head string
	body []byte
}

// key is the alias key as a durable string: one allocation, one copy (a
// plain head + string(body) would copy body twice).
func (r rawAlias) key() string {
	var b strings.Builder
	b.Grow(len(r.head) + len(r.body))
	b.WriteString(r.head)
	b.Write(r.body)
	return b.String()
}

// indexable reports whether the alias index admits r: only keys up to
// maxRawAliasBytes are indexed.
func (r rawAlias) indexable() bool { return len(r.head)+len(r.body) <= maxRawAliasBytes }

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
// (see flatRequest.parsed), not a digest: a collision would hand one
// request another request's bytes, so exactness is an invariant, bought
// with a few KiB per entry.
//
// In front of the canonical index sits a raw-body alias index: the exact
// bytes of a request body that previously parsed to a canonical key map
// straight to that key's entry. A repeat of byte-identical traffic (the
// dominant cache-hit shape) then resolves with one map lookup and zero
// parsing — the allocation-free hit path. A body is admitted as an alias
// on its second sighting, when its canonical lookup hits (see lookup): a
// first sighting copies no bytes, so traffic that never repeats pays
// nothing for the index. Aliases are exact byte strings in disjoint
// namespaces (singleton bodies vs batch item extents), so two different
// bodies can never share an alias; they are evicted with their entry.
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

// lookup returns the cached entry for key and marks it most recently used.
// The returned body and header slices are shared and must not be mutated.
//
// raw names the exact request bytes that reached this canonical lookup
// because they missed the raw-alias index (zero when there are none). A
// hit means the request was seen before, so raw is admitted as an alias
// now, on its second sighting, and a third takes the raw path. A miss
// admits nothing: most first sightings never repeat, so they copy no
// bytes. The alias key is copied after the lock is released, and only
// while the entry has alias room.
func (c *lru) lookup(key string, raw rawAlias) (cached, bool) {
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		return cached{}, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*lruEntry)
	hit, room := e.cached, len(e.raws) < maxRawAliases
	c.mu.Unlock()
	if room && raw.head != "" && raw.indexable() {
		c.alias(raw.key(), key)
	}
	return hit, true
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
// It no-ops when rawKey is over maxRawAliasBytes, the entry is gone
// (evicted, or caching of the computation failed), the alias already
// exists, or the entry is at its alias cap.
func (c *lru) alias(rawKey, key string) {
	if len(rawKey) > maxRawAliasBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.raw[rawKey]; ok {
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
	e.raws = append(e.raws, rawKey)
	c.raw[rawKey] = el
}

// len returns the number of cached entries.
func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/rng"
)

// oracleLRU is the obviously-correct reference: a recency-ordered slice
// (front = most recently used) plus a body map, mirroring lru's contract:
// lookup moves to front; add of an existing key refreshes recency and
// keeps the original body; add at capacity evicts the back.
type oracleLRU struct {
	max    int
	keys   []string // front = most recently used
	bodies map[string][]byte
}

func newOracle(max int) *oracleLRU {
	return &oracleLRU{max: max, bodies: map[string][]byte{}}
}

func (o *oracleLRU) touch(key string) {
	for i, k := range o.keys {
		if k == key {
			o.keys = append(o.keys[:i], o.keys[i+1:]...)
			break
		}
	}
	o.keys = append([]string{key}, o.keys...)
}

func (o *oracleLRU) get(key string) ([]byte, bool) {
	b, ok := o.bodies[key]
	if !ok {
		return nil, false
	}
	o.touch(key)
	return b, true
}

func (o *oracleLRU) add(key string, body []byte) {
	if _, ok := o.bodies[key]; ok {
		o.touch(key)
		return
	}
	if len(o.keys) >= o.max {
		last := o.keys[len(o.keys)-1]
		o.keys = o.keys[:len(o.keys)-1]
		delete(o.bodies, last)
	}
	o.bodies[key] = body
	o.keys = append([]string{key}, o.keys...)
}

// TestLRUEvictionOrderProperty drives the real cache and the oracle with
// the same seeded random get/add stream and demands identical observable
// behavior throughout: hit/miss pattern, returned bytes, size, and (at the
// end) the exact surviving key set.
func TestLRUEvictionOrderProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const capacity = 16
			const universe = 40 // > capacity so evictions are common
			const steps = 4000
			src := rng.New(seed)
			c := newLRU(capacity)
			o := newOracle(capacity)
			body := func(k int) []byte { return []byte(fmt.Sprintf("body-%d", k)) }
			for step := 0; step < steps; step++ {
				k := src.Intn(universe)
				key := fmt.Sprintf("key-%d", k)
				if src.Bool() {
					got, gotOK := c.lookup(key, rawAlias{})
					gotB := got.body
					wantB, wantOK := o.get(key)
					checkContentLength(t, step, got)
					if gotOK != wantOK || !bytes.Equal(gotB, wantB) {
						t.Fatalf("step %d: get(%s) = (%q, %v), oracle (%q, %v)",
							step, key, gotB, gotOK, wantB, wantOK)
					}
				} else {
					c.add(key, body(k), entryMeta{})
					o.add(key, body(k))
				}
				if c.len() != len(o.keys) {
					t.Fatalf("step %d: len %d, oracle %d", step, c.len(), len(o.keys))
				}
			}
			// The survivors — and only they — are retrievable, with the
			// oracle's bytes: eviction order matched on every step.
			for k := 0; k < universe; k++ {
				key := fmt.Sprintf("key-%d", k)
				wantB, wantOK := o.bodies[key]
				got, gotOK := c.lookup(key, rawAlias{})
				gotB := got.body
				if gotOK != wantOK || !bytes.Equal(gotB, wantB) {
					t.Fatalf("final: get(%s) = (%q, %v), oracle (%q, %v)", key, gotB, gotOK, wantB, wantOK)
				}
			}
		})
	}
}

// aliasOracle extends oracleLRU with the raw-alias index contract: a raw
// key maps to at most one live canonical entry, an entry carries at most
// maxRawAliases raw keys for its lifetime in the cache, eviction drops an
// entry's aliases with it, and a canonical lookup admits its raw bytes as
// an alias only when it hits (second-sighting admission).
type aliasOracle struct {
	*oracleLRU
	rawOf   map[string]string   // raw key -> canonical key (live entries only)
	aliases map[string][]string // canonical key -> its raw keys
}

func newAliasOracle(max int) *aliasOracle {
	return &aliasOracle{oracleLRU: newOracle(max), rawOf: map[string]string{}, aliases: map[string][]string{}}
}

func (o *aliasOracle) evictBack() {
	last := o.keys[len(o.keys)-1]
	o.keys = o.keys[:len(o.keys)-1]
	delete(o.bodies, last)
	for _, rk := range o.aliases[last] {
		delete(o.rawOf, rk)
	}
	delete(o.aliases, last)
}

func (o *aliasOracle) add(key string, body []byte) {
	if _, ok := o.bodies[key]; ok {
		o.touch(key)
		return
	}
	if len(o.keys) >= o.max {
		o.evictBack()
	}
	o.bodies[key] = body
	o.keys = append([]string{key}, o.keys...)
}

func (o *aliasOracle) alias(raw, key string) {
	if _, ok := o.rawOf[raw]; ok {
		return
	}
	if _, ok := o.bodies[key]; !ok {
		return
	}
	if len(o.aliases[key]) >= maxRawAliases {
		return
	}
	o.rawOf[raw] = key
	o.aliases[key] = append(o.aliases[key], raw)
}

// lookup is a canonical lookup reached by raw bytes that missed the raw
// index: a hit admits raw, a miss admits nothing.
func (o *aliasOracle) lookup(key, raw string) ([]byte, bool) {
	b, ok := o.get(key)
	if ok {
		o.alias(raw, key)
	}
	return b, ok
}

func (o *aliasOracle) getRaw(raw string) (body []byte, key string, ok bool) {
	key, ok = o.rawOf[raw]
	if !ok {
		return nil, "", false
	}
	o.touch(key)
	return o.bodies[key], key, true
}

// checkAliasStructure asserts the cache's structural invariants directly
// (white-box, single-threaded): every raw index entry resolves to a live
// canonical entry — never an evicted one — and no entry holds more than
// maxRawAliases aliases.
func checkAliasStructure(t *testing.T, step int, c *lru) {
	t.Helper()
	for rk, el := range c.raw {
		e := el.Value.(*lruEntry)
		live, ok := c.entries[e.key]
		if !ok {
			t.Fatalf("step %d: raw alias %q resolves to evicted entry %q", step, rk, e.key)
		}
		if live != el {
			t.Fatalf("step %d: raw alias %q points at a stale element for key %q", step, rk, e.key)
		}
	}
	for key, el := range c.entries {
		e := el.Value.(*lruEntry)
		if len(e.raws) > maxRawAliases {
			t.Fatalf("step %d: entry %q has %d raw aliases, cap %d", step, key, len(e.raws), maxRawAliases)
		}
		for _, rk := range e.raws {
			if c.raw[rk] != el {
				t.Fatalf("step %d: entry %q lists alias %q but the raw index disagrees", step, key, rk)
			}
		}
	}
}

// TestLRUAliasInterleavingProperty interleaves add/alias/getRaw and
// lookup, with and without raw bytes to admit (the full mutation surface of
// the cache, eviction included) against the alias
// oracle with seeded random streams, checking observable behavior on every
// step plus the raw-index structural invariants: a raw key never resolves
// to an evicted entry, and an entry never exceeds maxRawAliases aliases —
// even when clients push more than maxRawAliases formatting variants of one
// request, or re-add a key after its eviction.
func TestLRUAliasInterleavingProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			const capacity = 12
			const universe = 30 // > capacity so evictions are common
			const variants = 12 // > maxRawAliases so the cap is exercised
			const steps = 6000
			src := rng.New(seed)
			c := newLRU(capacity)
			o := newAliasOracle(capacity)
			body := func(k int) []byte { return []byte(fmt.Sprintf("body-%d", k)) }
			for step := 0; step < steps; step++ {
				k := src.Intn(universe)
				key := fmt.Sprintf("key-%d", k)
				raw := fmt.Sprintf("raw-%d-var-%d", k, src.Intn(variants))
				switch src.Intn(5) {
				case 0:
					got, gotOK := c.lookup(key, rawAlias{})
					gotB := got.body
					wantB, wantOK := o.get(key)
					checkContentLength(t, step, got)
					if gotOK != wantOK || !bytes.Equal(gotB, wantB) {
						t.Fatalf("step %d: get(%s) = (%q, %v), oracle (%q, %v)",
							step, key, gotB, gotOK, wantB, wantOK)
					}
				case 1:
					c.add(key, body(k), entryMeta{})
					o.add(key, body(k))
				case 2:
					c.alias(raw, key)
					o.alias(raw, key)
				case 3:
					got, gotOK := c.getRaw([]byte(raw))
					gotB, gotKey := got.body, got.key
					wantB, wantKey, wantOK := o.getRaw(raw)
					checkContentLength(t, step, got)
					if gotOK != wantOK || gotKey != wantKey || !bytes.Equal(gotB, wantB) {
						t.Fatalf("step %d: getRaw(%s) = (%q, %q, %v), oracle (%q, %q, %v)",
							step, raw, gotB, gotKey, gotOK, wantB, wantKey, wantOK)
					}
				case 4:
					// The request path's canonical lookup: raw arrives as a
					// namespace head plus bytes and is copied only if admitted.
					got, gotOK := c.lookup(key, rawAlias{head: raw[:4], body: []byte(raw[4:])})
					gotB := got.body
					wantB, wantOK := o.lookup(key, raw)
					checkContentLength(t, step, got)
					if gotOK != wantOK || !bytes.Equal(gotB, wantB) {
						t.Fatalf("step %d: lookup(%s, %s) = (%q, %v), oracle (%q, %v)",
							step, key, raw, gotB, gotOK, wantB, wantOK)
					}
				}
				if c.len() != len(o.keys) {
					t.Fatalf("step %d: len %d, oracle %d", step, c.len(), len(o.keys))
				}
				checkAliasStructure(t, step, c)
			}
			// Final sweep: every (key, variant) alias resolves exactly as the
			// oracle says — no ghost aliases to evicted entries survive.
			for k := 0; k < universe; k++ {
				for v := 0; v < variants; v++ {
					raw := fmt.Sprintf("raw-%d-var-%d", k, v)
					got, gotOK := c.getRaw([]byte(raw))
					gotB, gotKey := got.body, got.key
					wantB, wantKey, wantOK := o.getRaw(raw)
					if gotOK != wantOK || gotKey != wantKey || !bytes.Equal(gotB, wantB) {
						t.Fatalf("final: getRaw(%s) = (%q, %q, %v), oracle (%q, %q, %v)",
							raw, gotB, gotKey, gotOK, wantB, wantKey, wantOK)
					}
				}
			}
		})
	}
}

func gaugeValue(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	for _, g := range s.Metrics().Snapshot().Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	return 0
}

// TestDrainWithQueuedRequests pins the drain contract for a backlog:
// requests already queued when Drain begins run to completion with full
// responses, and the serve.queue_depth gauge returns to zero.
func TestDrainWithQueuedRequests(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 4})
	dequeued := make(chan *job, 1)
	release := make(chan struct{})
	s.testHookDequeued = func(j *job) {
		select {
		case dequeued <- j:
		default:
		}
		<-release
	}

	// Distinct bodies so none coalesce: one held in the worker, three
	// queued behind it.
	results := make(chan *httptest.ResponseRecorder, 4)
	go func() { results <- post(s, "/v1/iterate", iterateBody("min-min", "det", 1)) }()
	<-dequeued
	for i := 2; i <= 4; i++ {
		i := i
		go func() { results <- post(s, "/v1/iterate", iterateBody("min-min", "det", uint64(i))) }()
	}
	for s.queued.Load() != 3 {
		time.Sleep(time.Millisecond)
	}
	if got := gaugeValue(t, s, "serve.queue_depth"); got != 3 {
		t.Fatalf("serve.queue_depth = %g with 3 queued, want 3", got)
	}

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i := 0; i < 4; i++ {
		if rec := <-results; rec.Code != http.StatusOK {
			t.Fatalf("queued request: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := gaugeValue(t, s, "serve.queue_depth"); got != 0 {
		t.Fatalf("serve.queue_depth = %g after drain, want 0", got)
	}
	if got := s.queued.Load(); got != 0 {
		t.Fatalf("queued counter %d after drain, want 0", got)
	}
}

// checkContentLength: a hit's stored Content-Length value frames its body
// exactly.
func checkContentLength(t *testing.T, step int, c cached) {
	t.Helper()
	if c.body == nil {
		return
	}
	if len(c.clen) != 1 || c.clen[0] != strconv.Itoa(len(c.body)) {
		t.Fatalf("step %d: Content-Length %q for a %d-byte body", step, c.clen, len(c.body))
	}
}

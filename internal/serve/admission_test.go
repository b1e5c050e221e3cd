package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
)

// rawAliasCount is the size of the cache's raw-alias index.
func rawAliasCount(s *Server) int {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.raw)
}

// TestRawAliasSecondSighting pins second-sighting admission for singleton
// bodies: the first sighting (a miss) registers no raw alias, the second
// (a canonical hit, reached through the parse path) registers exactly one,
// and the third is served by the raw path, with no validate span.
func TestRawAliasSecondSighting(t *testing.T) {
	s, spans, _ := tracedServer(Options{})
	defer drain(t, s)
	body := string(matrixBody(32, 8, 5))
	for i, want := range []struct {
		cache    string
		aliases  int
		validate bool
	}{
		{"miss", 0, true},
		{"hit", 1, true},
		{"hit", 1, false},
		{"hit", 1, false},
	} {
		rec := post(s, "/v1/iterate", body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Schedd-Cache") != want.cache {
			t.Fatalf("sighting %d: status %d cache %q, want 200 %q", i+1, rec.Code, rec.Header().Get("X-Schedd-Cache"), want.cache)
		}
		if got := rawAliasCount(s); got != want.aliases {
			t.Fatalf("sighting %d: %d raw aliases, want %d", i+1, got, want.aliases)
		}
		if got := stageNames(spansFor(spans, rec.Header().Get(TraceHeader)))["validate"]; got != want.validate {
			t.Fatalf("sighting %d: validate span %v, want %v", i+1, got, want.validate)
		}
	}
	if _, ok := s.cache.getRaw([]byte(rawHeadSingleton(endpointIterate) + body)); !ok {
		t.Fatal("the admitted alias is not the body's singleton raw key")
	}
}

// TestBatchRawAliasSecondSighting is the same rule for batch items: a batch
// of fresh items registers no alias, its repeat (every item a canonical
// hit) registers one per item plus the whole-envelope alias, and a third
// repeat is one whole-envelope lookup that registers nothing more.
func TestBatchRawAliasSecondSighting(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	const n = 6
	items := make([]string, n)
	for i := range items {
		items[i] = batchItemJSON("iterate", string(matrixBody(16, 4, uint64(40+i))))
	}
	batch := batchBody(items...)
	for i, want := range []struct {
		cache   string
		aliases int
	}{
		{"miss", 0},
		{"hit", n + 1},
		{"hit", n + 1},
	} {
		rec := post(s, "/v1/batch", batch)
		if rec.Code != http.StatusOK {
			t.Fatalf("sighting %d: status %d", i+1, rec.Code)
		}
		for j, res := range decodeBatch(t, rec.Body.Bytes()).Results {
			if res.Cache != want.cache {
				t.Fatalf("sighting %d item %d: cache %q, want %q", i+1, j, res.Cache, want.cache)
			}
		}
		if got := rawAliasCount(s); got != want.aliases {
			t.Fatalf("sighting %d: %d raw aliases, want %d", i+1, got, want.aliases)
		}
	}
	for j, item := range items {
		if _, ok := s.cache.getRaw([]byte(rawHeadBatchItem + item)); !ok {
			t.Fatalf("item %d: no alias under its exact extent", j)
		}
	}
}

// TestFirstSightingCopiesNoBody measures what the rule saves: with the LRU
// on, a stream of distinct first sightings allocates less than one extra
// body copy per request over the same stream with caching off. An alias
// copied on a miss costs at least the whole body, so a regression to
// admit-on-miss fails here by a wide margin.
func TestFirstSightingCopiesNoBody(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("sync.Pool drops pooled scratch at random under -race, so scratch regrowth swamps the measurement")
	}
	const requests = 24
	singles := make([]string, requests)
	items := make([]string, requests)
	for i := range singles {
		singles[i] = string(matrixBody(64, 8, uint64(700+i)))
		items[i] = batchBody(batchItemJSON("iterate", singles[i]))
	}
	for _, tc := range []struct {
		name, path string
		bodies     []string
	}{
		{"singleton", "/v1/iterate", singles},
		{"batch-item", "/v1/batch", items},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perRequest := func(cacheEntries int) float64 {
				s := NewServer(Options{Workers: 1, CacheEntries: cacheEntries})
				defer drain(t, s)
				post(s, tc.path, string(matrixBody(4, 2, 1))) // warm pools and the worker
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for _, b := range tc.bodies {
					if rec := post(s, tc.path, b); rec.Code != http.StatusOK {
						t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
					}
				}
				runtime.ReadMemStats(&after)
				return float64(after.TotalAlloc-before.TotalAlloc) / requests
			}
			on, off := perRequest(0), perRequest(-1)
			body := float64(len(tc.bodies[0]))
			t.Logf("%s miss: %.0f B/request with the LRU, %.0f B without; body %.0f B", tc.name, on, off, body)
			if on-off >= body {
				t.Fatalf("LRU-on first sightings allocate %.0f B/request more than LRU-off, at least one %.0f B body copy",
					on-off, body)
			}
		})
	}
}

// TestScratchPoolBound pins the request scratch pool's cap: a scratch whose
// body or key buffer grew past maxPooledScratch is dropped, not pooled, so
// one large request cannot pin its buffers for the life of the process.
func TestScratchPoolBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		sc   *reqScratch
	}{
		{"buf", &reqScratch{buf: make([]byte, 0, maxPooledScratch+1)}},
		{"key", &reqScratch{key: make([]byte, 0, maxPooledScratch+1)}},
	} {
		t.Run(fmt.Sprintf("oversized-%s", tc.name), func(t *testing.T) {
			putScratch(tc.sc)
			for i := 0; i < 64; i++ {
				if getScratch() == tc.sc {
					t.Fatal("an oversized scratch came back from the pool")
				}
			}
		})
	}
	if raceDetectorEnabled {
		return // sync.Pool drops Puts at random under -race
	}
	// The control: a scratch at the cap is pooled (a GC between Put and Get
	// may empty the pool, so allow a few tries).
	for try := 0; try < 8; try++ {
		sc := &reqScratch{buf: make([]byte, 0, maxPooledScratch), key: make([]byte, 0, maxPooledScratch)}
		putScratch(sc)
		if getScratch() == sc {
			return
		}
	}
	t.Fatal("a scratch at the cap was never pooled")
}

// TestRawAliasKeyCopiesOnce: admitting an alias copies the request bytes
// once, into the durable key, in one allocation.
func TestRawAliasKeyCopiesOnce(t *testing.T) {
	r := rawAlias{head: rawHeadBatchItem, body: matrixBody(32, 8, 1)}
	var k string
	if got := testing.AllocsPerRun(20, func() { k = r.key() }); got != 1 {
		t.Fatalf("rawAlias.key costs %.0f allocations, want 1", got)
	}
	if k != rawHeadBatchItem+string(r.body) {
		t.Fatal("rawAlias.key is not head followed by body")
	}
}

// TestOversizedBodySkipsRawProbe: the raw-alias index never admits a key
// over maxRawAliasBytes, so probing it for a larger body is a certain
// miss. The probe — used by the singleton handler, the batch-item loop and
// the whole-envelope check alike — must then neither copy the body into
// the scratch key buffer nor hash it.
func TestOversizedBodySkipsRawProbe(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	big := matrixBody(400, 16, 3)
	if len(big) <= maxRawAliasBytes {
		t.Fatalf("test body is %d bytes, want over %d", len(big), maxRawAliasBytes)
	}
	for _, head := range []string{rawHeadSingleton(endpointIterate), rawHeadBatchItem, rawHeadBatchEnv} {
		sc := &reqScratch{}
		if _, ok := sc.getRaw(s.cache, rawAlias{head: head, body: big}); ok {
			t.Fatalf("head %q: an over-limit body hit the raw index", head)
		}
		if cap(sc.key) != 0 {
			t.Fatalf("head %q: an over-limit probe grew the scratch key buffer to %d bytes", head, cap(sc.key))
		}
	}
	// The control: a body at the limit is probed, in the scratch.
	head := rawHeadSingleton(endpointIterate)
	sc := &reqScratch{}
	sc.getRaw(s.cache, rawAlias{head: head, body: make([]byte, maxRawAliasBytes-len(head))})
	if cap(sc.key) < maxRawAliasBytes {
		t.Fatalf("a probe at the limit built a %d-byte key buffer, want %d", cap(sc.key), maxRawAliasBytes)
	}
	// End to end, the over-limit body is still served and cached; its
	// repeats are canonical hits, never raw ones.
	for i, want := range []string{"miss", "hit", "hit"} {
		rec := post(s, "/v1/iterate", string(big))
		if rec.Code != http.StatusOK || rec.Header().Get("X-Schedd-Cache") != want {
			t.Fatalf("sighting %d: status %d cache %q, want 200 %q", i+1, rec.Code, rec.Header().Get("X-Schedd-Cache"), want)
		}
	}
	if got := rawAliasCount(s); got != 0 {
		t.Fatalf("%d raw aliases registered for an over-limit body, want 0", got)
	}
}

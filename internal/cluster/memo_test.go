package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// len reports the number of memoized routes.
func (m *routeMemo) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// memoBody is a distinct canonical /v1/iterate body per seed.
func memoBody(seed int) []byte { return []byte(iterBody(uint64(seed))) }

// TestRouteMemoBounded pins the memo's entry cap under 3× that many unique
// bodies, and that every answer — memoized or derived — is the KeyHash of
// the body's canonical key.
func TestRouteMemoBounded(t *testing.T) {
	m := newRouteMemo("/v1/iterate")
	for seed := 0; seed < 3*memoCap; seed++ {
		body := memoBody(seed)
		kh, hit := m.keyHash(body)
		if hit {
			t.Fatalf("seed %d: first sight of a body hit the memo", seed)
		}
		key, _ := serve.CanonicalKey("/v1/iterate", body)
		if kh != KeyHash(key) {
			t.Fatalf("seed %d: key hash %x, want %x", seed, kh, KeyHash(key))
		}
		if n := m.len(); n > memoCap {
			t.Fatalf("seed %d: memo holds %d entries, cap %d", seed, n, memoCap)
		}
	}
	// The last body stays memoized after the clears.
	last := memoBody(3*memoCap - 1)
	if _, hit := m.keyHash(last); !hit {
		t.Fatal("repeat of the last body missed the memo")
	}
}

// TestRouteMemoConcurrent hammers one memo from several goroutines over
// more unique bodies than the cap, so lookups, inserts and a clear race:
// every answer must still be its body's canonical key hash.
func TestRouteMemoConcurrent(t *testing.T) {
	const workers = 4
	n := memoCap/workers + memoCap/2 // workers·n > memoCap
	want := make([]uint64, workers*n)
	bodies := make([][]byte, len(want))
	for i := range bodies {
		bodies[i] = memoBody(i)
		key, _ := serve.CanonicalKey("/v1/iterate", bodies[i])
		want[i] = KeyHash(key)
	}
	m := newRouteMemo("/v1/iterate")
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker walks its own slice twice, then its neighbour's.
			for _, base := range []int{w, w, (w + 1) % workers} {
				for i := base * n; i < (base+1)*n; i++ {
					if kh, _ := m.keyHash(bodies[i]); kh != want[i] {
						t.Errorf("body %d: key hash %x, want %x", i, kh, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n := m.len(); n > memoCap {
		t.Fatalf("memo holds %d entries, cap %d", n, memoCap)
	}
}

// TestRouteMemoBytesPerEntry pins the memo's footprint: a full memo costs
// at most 64 B of live heap per entry, whatever the body size. Each fill
// is measured as the live-heap delta across it; the smallest of three
// fills is kept, so a goroutine left over from an earlier test that
// allocates during one fill cannot fail the test.
func TestRouteMemoBytesPerEntry(t *testing.T) {
	bodies := make([][]byte, memoCap)
	for i := range bodies {
		bodies[i] = memoBody(i)
	}
	liveHeap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle empties sync.Pool victim caches too
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	perEntry := math.Inf(1)
	for range 3 {
		before := liveHeap()
		m := newRouteMemo("/v1/iterate")
		for _, b := range bodies {
			m.keyHash(b)
		}
		if m.len() != memoCap {
			t.Fatalf("memo holds %d entries, want %d", m.len(), memoCap)
		}
		perEntry = min(perEntry, float64(liveHeap()-before)/memoCap)
		runtime.KeepAlive(m)
	}
	t.Logf("%.1f B per entry", perEntry)
	if perEntry > 64 {
		t.Fatalf("memo costs %.1f B per entry, bound 64", perEntry)
	}
	runtime.KeepAlive(bodies)
}

// TestRouteMemoSkipsNonCanonical: bodies without a canonical key route by
// their raw bytes on every arrival and are never memoized.
func TestRouteMemoSkipsNonCanonical(t *testing.T) {
	m := newRouteMemo("/v1/iterate")
	for _, body := range []string{`{`, `{"etc":[[0,2]],"heuristic":"min-min"}`, `{"etc":[[1]],"heuristic":"nope"}`} {
		for range 2 {
			kh, hit := m.keyHash([]byte(body))
			if hit {
				t.Fatalf("%s: non-canonical body hit the memo", body)
			}
			if want := KeyHash(RawRouteKey("/v1/iterate", []byte(body))); kh != want {
				t.Fatalf("%s: key hash %x, want the raw route hash %x", body, kh, want)
			}
		}
	}
	if n := m.len(); n != 0 {
		t.Fatalf("memo holds %d entries after non-canonical bodies only", n)
	}
}

// batchItem splices an endpoint discriminator into a singleton body.
func batchItem(endpoint, body string) string {
	return `{"endpoint":"` + endpoint + `",` + body[1:]
}

// routesOf returns the GatewayRoute events among events.
func routesOf(events []obs.Event) []obs.GatewayRoute {
	var out []obs.GatewayRoute
	for _, e := range events {
		if rt, ok := e.(obs.GatewayRoute); ok {
			out = append(out, rt)
		}
	}
	return out
}

// TestRouteMemoHitMatchesMiss: a request routed from the memo emits the
// same GatewayRoute events and the same trace ID as the same request
// routed by decoding it. Two fresh clusters see the same body as their
// first traced request; the second gateway's memo was warmed untraced, so
// its request is a memo hit where the first's is a miss.
func TestRouteMemoHitMatchesMiss(t *testing.T) {
	items := []string{
		batchItem("iterate", iterBody(11)),
		batchItem("map", mapBody(12)),
		`{"endpoint":"iterate","etc":[[0]]}`, // no canonical key
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/iterate", iterBody(5)},
		{"/v1/map", mapBody(6)},
		{"/v1/batch", `{"items":[` + strings.Join(items, ",") + `]}`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			type outcome struct {
				routes []obs.GatewayRoute
				trace  string
				body   string
			}
			run := func(warm bool) outcome {
				// A fresh cluster per run: both runs see cold backends, so
				// even the batch envelope's per-item cache fields agree.
				col := &obs.Collector{}
				_, g, _ := startCluster(t, 3, Options{Observer: col, Tracer: obs.NewTracer(&obs.Collector{})})
				if warm {
					if tc.path == "/v1/batch" {
						raw, _ := serve.SplitBatchItems([]byte(tc.body))
						for _, it := range raw {
							g.memos[itemNS].keyHash(it)
						}
					} else {
						g.memos[tc.path].keyHash([]byte(tc.body))
					}
				}
				rec := postHandler(t, g.Handler(), tc.path, tc.body)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
				hits := g.mMemoHits.Value()
				wantHits := int64(0)
				if warm {
					wantHits = 1
					if tc.path == "/v1/batch" {
						wantHits = 2 // the canonical items; the invalid one is never memoized
					}
				}
				if hits != wantHits {
					t.Fatalf("warm=%v: %d memo hits, want %d", warm, hits, wantHits)
				}
				return outcome{routesOf(col.Events()), rec.Header().Get(serve.TraceHeader), rec.Body.String()}
			}
			miss, hit := run(false), run(true)
			if len(miss.routes) == 0 || !equalRoutes(miss.routes, hit.routes) {
				t.Fatalf("routes differ:\nmiss %+v\nhit  %+v", miss.routes, hit.routes)
			}
			if miss.trace == "" || miss.trace != hit.trace {
				t.Fatalf("trace IDs differ: miss %q, hit %q", miss.trace, hit.trace)
			}
			if miss.body != hit.body {
				t.Fatalf("response bodies differ:\nmiss %s\nhit  %s", miss.body, hit.body)
			}
		})
	}
}

func equalRoutes(a, b []obs.GatewayRoute) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouteMemoReencodings: re-encodings of one request (reflowed
// whitespace, reordered fields, 4 spelled 4.0) are different bytes, so each
// gets its own memo entry — yet each routes by the one canonical key, to
// the same backend, and gets the same response bytes, hit or miss.
func TestRouteMemoReencodings(t *testing.T) {
	col := &obs.Collector{}
	_, g, _ := startCluster(t, 4, Options{Observer: col})
	canonical := iterBody(9)
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(canonical), "", "  "); err != nil {
		t.Fatal(err)
	}
	encodings := []string{
		canonical,
		indented.String(),
		`{"seed":9,"ties":"random","heuristic":"sufferage","etc":[[4,9,9],[9,2,2],[9,9,3]]}`,
		`{"etc":[[4.0,9,9],[9,2,2],[9,9,3]],"heuristic":"sufferage","ties":"random","seed":9}`,
	}
	var want string
	for pass := range 2 {
		for i, body := range encodings {
			rec := postHandler(t, g.Handler(), "/v1/iterate", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("encoding %d: status %d: %s", i, rec.Code, rec.Body)
			}
			if want == "" {
				want = rec.Body.String()
			} else if rec.Body.String() != want {
				t.Fatalf("pass %d encoding %d: response differs from the canonical encoding's", pass, i)
			}
		}
		if n := g.memos["/v1/iterate"].len(); n != len(encodings) {
			t.Fatalf("pass %d: memo holds %d entries, want one per encoding (%d)", pass, n, len(encodings))
		}
	}
	if hits := g.mMemoHits.Value(); hits != int64(len(encodings)) {
		t.Fatalf("%d memo hits, want %d (the second pass)", hits, len(encodings))
	}
	routes := routesOf(col.Events())
	if len(routes) != 2*len(encodings) {
		t.Fatalf("%d route events, want %d", len(routes), 2*len(encodings))
	}
	for _, rt := range routes[1:] {
		if rt.KeyHash != routes[0].KeyHash || rt.Served != routes[0].Served {
			t.Fatalf("route %+v differs from the canonical encoding's %+v", rt, routes[0])
		}
	}
}

// BenchmarkGatewayRouteMemo prices the route of one 32×8 float body: a
// memo hit (digest and lookup) against a miss (digest, the canonical-key
// decode, and the insert).
func BenchmarkGatewayRouteMemo(b *testing.B) {
	body := []byte(floatBody(1))
	m := newRouteMemo("/v1/iterate")
	b.Run("hit-32x8", func(b *testing.B) {
		m.keyHash(body)
		b.ReportAllocs()
		for b.Loop() {
			if _, hit := m.keyHash(body); !hit {
				b.Fatal("repeat body missed the memo")
			}
		}
	})
	b.Run("miss-32x8", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			clear(m.m)
			if _, hit := m.keyHash(body); hit {
				b.Fatal("cleared memo hit")
			}
		}
	})
}

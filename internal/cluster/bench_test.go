package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/etc"
	"repro/internal/rng"
	"repro/internal/serve"
)

// benchCluster boots n backends and a gateway with keep-alives on (the
// production transport shape); the caller drives gw.Handler() directly so
// the numbers measure the gateway hop — route, forward over real loopback
// HTTP, relay — not a load generator's client stack.
func benchCluster(b testing.TB, n int) (*Gateway, func()) {
	b.Helper()
	local, err := StartLocal(n, serve.Options{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	g, err := NewGateway(Options{
		Backends: local.Backends(),
		Client: client.Options{
			MaxRetries:       -1,
			BreakerThreshold: -1,
			Timeout:          5 * time.Second,
			Seed:             1,
		},
	})
	if err != nil {
		local.Close()
		b.Fatal(err)
	}
	return g, func() { local.Close() }
}

func benchPost(b testing.TB, h http.Handler, path, body string) string {
	b.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// floatBody is a /v1/iterate body over a 32×8 hihi-i matrix whose cells
// carry full float64 precision — the shape of real traffic, where parsing
// the cells is most of what deriving a canonical key costs.
func floatBody(seed uint64) string { return sizedFloatBody(32, 8, seed) }

// sizedFloatBody is floatBody at any tasks×machines shape.
func sizedFloatBody(tasks, machines int, seed uint64) string {
	m, err := etc.GenerateClass(etc.AllClasses()[0], tasks, machines, rng.New(seed))
	if err != nil {
		panic(err)
	}
	body, err := json.Marshal(serve.Request{ETC: m.Values(), Heuristic: "min-min", Ties: "det", Seed: seed})
	if err != nil {
		panic(err)
	}
	return string(body)
}

// benchShapes are the request bodies the gateway benchmarks post: the
// 3×3 integer matrix under the historical names, and the 32×8 float shape.
var benchShapes = []struct {
	prefix string
	body   func(seed uint64) string
}{{"", iterBody}, {"32x8-", floatBody}}

// BenchmarkGatewayHit measures the warm path — every request routes to the
// owning backend's cache — across backend counts: the per-request cost of
// horizontal scale when the cluster is steady.
func BenchmarkGatewayHit(b *testing.B) {
	for _, shape := range benchShapes {
		for _, n := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%sbackends-%d", shape.prefix, n), func(b *testing.B) {
				g, stop := benchCluster(b, n)
				defer stop()
				body := shape.body(1)
				benchPost(b, g.Handler(), "/v1/iterate", body) // warm the owner's cache
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchPost(b, g.Handler(), "/v1/iterate", body)
				}
			})
		}
	}
}

// gatewayHitBounds bound what a warm gateway hit allocates over one local
// backend and the pooled transport, recorder and request included, per
// request shape: the counts as measured (Linux, go1.24), and bytes with
// headroom. Before the gateway read bodies into pooled buffers and relayed
// responses from them it took 117 allocations and 15.8 KB (3×3), and 121
// and 26.5 KB (32×8); before the client sent untraced attempts with one
// shared header, 112 and 14.95 KB, and 113 and 18.3 KB.
var gatewayHitBounds = []struct {
	name   string
	body   func(seed uint64) string
	allocs float64
	bytes  float64
}{
	{"3x3", iterBody, 110, 15000},
	{"32x8", floatBody, 111, 18500},
}

// TestGatewayHitAllocs pins what BenchmarkGatewayHit/backends-1 and
// 32x8-backends-1 measure: a warm hit through the gateway, its loopback
// hop to the owner's cache and back, within the allocation count and
// bytes of gatewayHitBounds.
func TestGatewayHitAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random; the non-race run enforces the bound")
	}
	g, stop := benchCluster(t, 1)
	defer stop()
	for _, tc := range gatewayHitBounds {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.body(1)
			hit := func() { benchPost(t, g.Handler(), "/v1/iterate", body) }
			hit() // warm the owner's cache
			if got := testing.AllocsPerRun(200, hit); got > tc.allocs {
				t.Errorf("warm gateway hit: %v allocs, want <= %v", got, tc.allocs)
			}
			if got := bytesPerRun(200, hit); got > tc.bytes {
				t.Errorf("warm gateway hit: %.0f bytes, want <= %.0f", got, tc.bytes)
			}
		})
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes f
// allocates per call, after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// BenchmarkGatewayBatchHit measures the warm batch path: an 8-item batch is
// split by key, fanned out, and merged back in input order on every op.
func BenchmarkGatewayBatchHit(b *testing.B) {
	for _, shape := range benchShapes {
		for _, n := range []int{1, 4} {
			b.Run(fmt.Sprintf("%sbackends-%d", shape.prefix, n), func(b *testing.B) {
				g, stop := benchCluster(b, n)
				defer stop()
				var items []string
				for s := uint64(1); s <= 8; s++ {
					// A batch item is a singleton body with the endpoint
					// discriminator spliced in.
					items = append(items, `{"endpoint":"iterate",`+shape.body(s)[1:])
				}
				body := `{"items":[` + strings.Join(items, ",") + `]}`
				benchPost(b, g.Handler(), "/v1/batch", body) // warm every owner
				if warm := benchPost(b, g.Handler(), "/v1/batch", body); strings.Count(warm, `"cache":"hit"`) != len(items) {
					b.Fatalf("warm batch is not %d cache hits: %s", len(items), warm)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchPost(b, g.Handler(), "/v1/batch", body)
				}
			})
		}
	}
}

// BenchmarkRankHash measures one key's full rendezvous preference order.
func BenchmarkRankHash(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("members-%d", n), func(b *testing.B) {
			r, err := NewRouter(members(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			kh := uint64(0x9e3779b97f4a7c15)
			for b.Loop() {
				kh++
				r.RankHash(kh)
			}
		})
	}
}

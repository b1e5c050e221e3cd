package serve

import (
	"fmt"
	"net/http"
	"testing"
)

// BenchmarkServe*CacheMiss measures the full compute-and-cache miss path
// of both endpoints; BenchmarkServeCacheHit (serve_bench_test.go) times the
// hit path. All timings are observational; nothing here feeds back into
// scheduling decisions.

func BenchmarkServeIterateCacheMiss(b *testing.B) {
	// Distinct seeds with random ties give every request a distinct cache
	// key, so each one takes the full queue → worker → compute path.
	s := NewServer(Options{CacheEntries: -1})
	defer s.Drain(b.Context())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := post(s, "/v1/iterate", iterateBody("min-min", "random", uint64(i+1)))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

func BenchmarkServeMapCacheMiss(b *testing.B) {
	s := NewServer(Options{CacheEntries: -1})
	defer s.Drain(b.Context())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min","ties":"random","seed":%d}`, i+1)
		rec := post(s, "/v1/map", body)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

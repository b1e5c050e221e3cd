package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/obs"
)

// Serving-path benchmarks: the raw-alias hit path (BenchmarkServeCacheHit)
// and batch amortization (BenchmarkBatchServe). Both drive the real mux
// with reusable requests/writers so the numbers isolate server cost;
// scripts/bench.sh records them in BENCH_1.json and scripts/benchdiff.sh
// gates regressions on both ns/op and allocs/op.

// discardObserver swallows spans so the traced benchmark measures trace
// construction, not sink accumulation.
type discardObserver struct{}

func (discardObserver) Observe(obs.Event) {}

func benchDrain(b *testing.B, s *Server) {
	b.Helper()
	if err := s.Drain(context.Background()); err != nil {
		b.Fatalf("Drain: %v", err)
	}
}

// BenchmarkServeCacheHit measures one singleton request served from the
// raw-alias index, untraced (the alloc-guarded fast path) and traced with a
// discarding sink (the observability overhead).
func BenchmarkServeCacheHit(b *testing.B) {
	body := iterateBody("sufferage", "random", 42)
	run := func(b *testing.B, opts Options) {
		s := NewServer(opts)
		defer benchDrain(b, s)
		if rec := post(s, "/v1/iterate", body); rec.Code != http.StatusOK {
			b.Fatalf("warm-up status %d", rec.Code)
		}
		req, rb := newReplayRequest("/v1/iterate", body)
		w := &nullResponseWriter{h: http.Header{}}
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rb.reset()
			h.ServeHTTP(w, req)
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, Options{}) })
	b.Run("traced", func(b *testing.B) {
		run(b, Options{Tracer: obs.NewTracer(discardObserver{})})
	})
}

// BenchmarkBatchServe pins the batch win: 64 warm items in one /v1/batch
// exchange versus the same 64 items as singleton requests. The issue's
// acceptance bar is batch ≥ 3× the singleton-loop throughput.
func BenchmarkBatchServe(b *testing.B) {
	const n = 64
	singles := make([]string, n)
	items := make([]string, n)
	for i := 0; i < n; i++ {
		singles[i] = iterateBody("min-min", "random", uint64(i+1))
		items[i] = batchItemJSON("iterate", singles[i])
	}
	batch := batchBody(items...)

	b.Run(fmt.Sprintf("batch-%d", n), func(b *testing.B) {
		s := NewServer(Options{})
		defer benchDrain(b, s)
		if rec := post(s, "/v1/batch", batch); rec.Code != http.StatusOK {
			b.Fatalf("warm-up status %d: %s", rec.Code, rec.Body.String())
		}
		req, rb := newReplayRequest("/v1/batch", batch)
		w := &nullResponseWriter{h: http.Header{}}
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rb.reset()
			h.ServeHTTP(w, req)
		}
	})
	b.Run(fmt.Sprintf("singletons-%d", n), func(b *testing.B) {
		s := NewServer(Options{})
		defer benchDrain(b, s)
		if rec := post(s, "/v1/batch", batch); rec.Code != http.StatusOK {
			b.Fatalf("warm-up status %d: %s", rec.Code, rec.Body.String())
		}
		reqs := make([]*http.Request, n)
		rbs := make([]*replayBody, n)
		for i := 0; i < n; i++ {
			reqs[i], rbs[i] = newReplayRequest("/v1/iterate", singles[i])
		}
		w := &nullResponseWriter{h: http.Header{}}
		h := s.Handler()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				rbs[j].reset()
				h.ServeHTTP(w, reqs[j])
			}
		}
	})
}

// BenchmarkServeMissLRU measures first sightings with the LRU on, which
// every other miss benchmark leaves out (they run with CacheEntries: -1):
// /v1/iterate singletons at 32×8 and at 128×16 (engine-miss's heaviest
// shape) and a 16-item batch of fresh 32×8 items. Every body carries a new
// seed, so each request or item computes and enters the cache, and none
// repeats. Building the bodies costs one allocation per body or item, the
// same at every commit.
func BenchmarkServeMissLRU(b *testing.B) {
	bodies := func(tasks, machines int) func(seed int) string {
		prefix := string(matrixBody(tasks, machines, 1))
		prefix = prefix[:len(prefix)-len(`1}`)] // ends in "seed":
		return func(seed int) string { return prefix + strconv.Itoa(seed) + "}" }
	}
	body := bodies(32, 8)
	for _, sh := range []struct {
		name string
		body func(seed int) string
	}{{"singleton-32x8", body}, {"singleton-128x16", bodies(128, 16)}} {
		b.Run(sh.name, func(b *testing.B) {
			s := NewServer(Options{})
			defer benchDrain(b, s)
			b.ReportAllocs()
			for seed := 1; b.Loop(); seed++ {
				if rec := post(s, "/v1/iterate", sh.body(seed)); rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
	b.Run("batch-16x32x8", func(b *testing.B) {
		const n = 16
		s := NewServer(Options{})
		defer benchDrain(b, s)
		items := make([]string, n)
		b.ReportAllocs()
		for seed := 1; b.Loop(); seed += n {
			for j := range items {
				items[j] = batchItemJSON("iterate", body(seed+j))
			}
			if rec := post(s, "/v1/batch", batchBody(items...)); rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	})
}

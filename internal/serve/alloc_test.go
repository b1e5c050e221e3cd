package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// The serve-path allocation guards. The issue's target: an untraced,
// unobserved cache hit — the dominant request in a steady-state workload —
// must cost at most 8 allocations end to end (down from 71 before the
// raw-alias fast path), measured through the real mux with a reusable
// request and response writer so only the server's own costs count.

// replayBody is a resettable io.ReadCloser so one http.Request can be
// served repeatedly without per-iteration reader allocations.
type replayBody struct {
	data []byte
	off  int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *replayBody) Close() error { return nil }

func (r *replayBody) reset() { r.off = 0 }

// nullResponseWriter is the minimal reusable http.ResponseWriter: header
// map reused across requests, body bytes discarded (correctness of the
// bytes is pinned elsewhere; this type exists to measure the server, not
// the recorder).
type nullResponseWriter struct {
	h http.Header
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(int)             {}

// newReplayRequest builds one reusable POST request for path with the given
// body; reset the returned replayBody before each serve.
func newReplayRequest(path, body string) (*http.Request, *replayBody) {
	rb := &replayBody{data: []byte(body)}
	return &http.Request{
		Method: http.MethodPost,
		URL:    &url.URL{Path: path},
		Body:   rb,
		Host:   "test",
	}, rb
}

// TestCacheHitAllocs is the serve-side alloc guard: zero allocs/op on the
// untraced raw-alias hit path (at most 8 under -race, where sync.Pool drops
// pooled scratch at random), for a small response and for one larger than
// net/http's 2 KiB buffer — its Content-Length value comes from the cache
// entry, never built per hit.
func TestCacheHitAllocs(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		minBytes   int
	}{
		{"small", iterateBody("sufferage", "random", 42), 0},
		{"over-2KiB", string(matrixBody(64, 8, 7)), 2048},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(Options{})
			defer drain(t, s)
			rec := post(s, "/v1/iterate", tc.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("warm-up status %d: %s", rec.Code, rec.Body.String())
			}
			if rec.Body.Len() <= tc.minBytes {
				t.Fatalf("response is %d bytes, want over %d", rec.Body.Len(), tc.minBytes)
			}

			req, rb := newReplayRequest("/v1/iterate", tc.body)
			w := &nullResponseWriter{h: http.Header{}}
			h := s.Handler()
			// Prime the pooled scratch and the raw alias before measuring.
			rb.reset()
			h.ServeHTTP(w, req)
			if got := w.h.Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("hit Content-Length %q, want %d", got, rec.Body.Len())
			}

			got := testing.AllocsPerRun(200, func() {
				rb.reset()
				h.ServeHTTP(w, req)
			})
			budget := 0.0
			if raceDetectorEnabled {
				budget = 8
			}
			if got > budget {
				t.Fatalf("untraced cache hit costs %.1f allocs/op, budget %.0f", got, budget)
			}
			if hits := counterValue(t, s, "serve.cache_hits"); hits == 0 {
				t.Fatal("guard measured a non-hit path")
			}
		})
	}
}

// engineMissHeuristics are the greedy heuristics the engine-miss workload
// draws from.
var engineMissHeuristics = []string{"min-min", "max-min", "duplex", "sufferage", "mct", "kpb", "swa"}

// missBody is a tasks×machines /v1/iterate body for heuristic, with random
// ties, optionally seeded.
func missBody(tasks, machines int, heuristic string, seeded bool, seed uint64) string {
	body := strings.Replace(string(matrixBody(tasks, machines, seed)), `"heuristic":"min-min"`, `"heuristic":"`+heuristic+`"`, 1)
	if seeded {
		body = strings.Replace(body, `"seed":`, `"seeded":true,"seed":`, 1)
	}
	return body
}

// computedMissAllocs is what a computed miss may allocate, whatever its
// heuristic, the matrix's shape and the trace's iteration count: the
// parsed request and its canonical key, the deadline context, the random
// tie policy, the job and its result channel, the coalescing flight, the
// response headers and the body. It is plain Min-Min's count. The
// heuristic (a registry value, its name, and the Seeded wrapper), the
// instance, the trace's storage, every heuristic run's scratch and
// mapping, and the response value come from the registry or the worker's
// compute scratch.
const computedMissAllocs = 18

// TestComputedMissAllocs is the served-miss alloc guard. For every
// engine-miss heuristic, plain and seeded, at 64×8 and 128×16, a computed
// /v1/iterate miss through the real mux (one worker, no cache, so every
// request computes) allocates at most computedMissAllocs: the engine's
// runs, which map into the worker's scratch, allocate nothing per
// iteration, and naming or wrapping the heuristic allocates nothing. A
// /v1/map miss, which maps into the same scratch, is held to the same
// budget.
func TestComputedMissAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random, so the pooled scratch refills are not counted reproducibly; the non-race run enforces the bound")
	}
	s := NewServer(Options{Workers: 1, CacheEntries: -1})
	defer drain(t, s)
	h := s.Handler()
	w := &nullResponseWriter{h: http.Header{}}
	const seed = 5
	for _, sh := range []struct{ tasks, machines int }{{64, 8}, {128, 16}} {
		for _, name := range engineMissHeuristics {
			for _, seeded := range []bool{false, true} {
				for _, path := range []string{"/v1/iterate", "/v1/map"} {
					body := missBody(sh.tasks, sh.machines, name, seeded, seed)
					label := fmt.Sprintf("%s %s seeded=%v %dx%d", path, name, seeded, sh.tasks, sh.machines)
					req, rb := newReplayRequest(path, body)
					rb.reset()
					h.ServeHTTP(w, req) // warm-up: grows the worker's scratch
					served := testing.AllocsPerRun(20, func() {
						rb.reset()
						h.ServeHTTP(w, req)
					})
					if served > computedMissAllocs {
						t.Errorf("%s: a computed miss costs %v allocs, want <= %v", label, served, computedMissAllocs)
					}
				}
			}
		}
	}
	// The writer discards the status: the counters show that every
	// measured request was a computed miss answered 200.
	reqs := counterValue(t, s, "serve.requests_total")
	if misses, ok := counterValue(t, s, "serve.cache_misses"), counterValue(t, s, "serve.responses_2xx"); misses != reqs || ok != reqs {
		t.Fatalf("%d requests: %d cache misses and %d 2xx, want every request a computed miss answered 200", reqs, misses, ok)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/heuristics"
	"repro/internal/obs"
)

// panicSeed is the sentinel the tests' PanicTrigger panics on.
const panicSeed = 0xdead

func panicServer(opts Options) *Server {
	opts.PanicTrigger = func(seed uint64) {
		if seed == panicSeed {
			panic("deliberate test panic")
		}
	}
	return NewServer(opts)
}

// TestPanicIsolation pins the tentpole contract: a panic on the request path
// yields a structured 500 with code "panic", increments serve.panics_total,
// emits a panic_recovered event, and the worker survives — the server keeps
// serving byte-identical cached responses afterwards.
func TestPanicIsolation(t *testing.T) {
	collector := &obs.Collector{}
	s := panicServer(Options{Workers: 1, Observer: collector})
	defer drain(t, s)

	// Healthy request first, so there is a cache entry to re-serve later.
	good := iterateBody("min-min", "det", 1)
	first := post(s, "/v1/iterate", good)
	if first.Code != http.StatusOK {
		t.Fatalf("healthy request: status %d: %s", first.Code, first.Body.String())
	}

	rec := post(s, "/v1/iterate", iterateBody("min-min", "det", panicSeed))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500: %s", rec.Code, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != CodePanic {
		t.Fatalf("panicking request envelope: %s", rec.Body.String())
	}
	// The client-facing message is fixed: panic values are nondeterministic
	// and must never leak into response bodies.
	if er.Error.Message != "internal panic (recovered)" {
		t.Fatalf("panic 500 message %q leaks detail", er.Error.Message)
	}
	if got := counterValue(t, s, "serve.panics_total"); got != 1 {
		t.Fatalf("serve.panics_total = %d, want 1", got)
	}

	// The single worker survived: the cached body is re-served
	// byte-identically and fresh computations still run.
	hit := post(s, "/v1/iterate", good)
	if hit.Code != http.StatusOK || hit.Header().Get("X-Schedd-Cache") != "hit" {
		t.Fatalf("post-panic cached request: status %d cache %q", hit.Code, hit.Header().Get("X-Schedd-Cache"))
	}
	if !bytes.Equal(hit.Body.Bytes(), first.Body.Bytes()) {
		t.Fatal("post-panic cache hit differs from pre-panic body")
	}
	if rec := post(s, "/v1/iterate", iterateBody("max-min", "det", 2)); rec.Code != http.StatusOK {
		t.Fatalf("post-panic fresh request: status %d: %s", rec.Code, rec.Body.String())
	}

	// A second identical panicking request panics again: recovered results
	// are never cached.
	if rec := post(s, "/v1/iterate", iterateBody("min-min", "det", panicSeed)); rec.Code != http.StatusInternalServerError {
		t.Fatalf("repeat panicking request: status %d, want 500", rec.Code)
	}
	if got := counterValue(t, s, "serve.panics_total"); got != 2 {
		t.Fatalf("serve.panics_total = %d, want 2 (panic responses must not be cached)", got)
	}

	// Observability: a panic_recovered event with the panic value, and a
	// request_done access-log record with status 500 for the same request.
	var panics []obs.PanicRecovered
	var done500 int
	for _, e := range collector.Events() {
		switch ev := e.(type) {
		case obs.PanicRecovered:
			panics = append(panics, ev)
		case obs.RequestDone:
			if ev.Status == http.StatusInternalServerError {
				done500++
				if ev.Cache != "" {
					t.Fatalf("panic-recovered request_done claims cache state %q", ev.Cache)
				}
			}
		}
	}
	if len(panics) != 2 {
		t.Fatalf("%d panic_recovered events, want 2", len(panics))
	}
	if panics[0].Endpoint != "/v1/iterate" || !strings.Contains(panics[0].Value, "deliberate test panic") {
		t.Fatalf("panic_recovered event %+v", panics[0])
	}
	if panics[0].Stack == "" {
		t.Fatal("panic_recovered event missing stack")
	}
	if done500 != 2 {
		t.Fatalf("%d request_done events with status 500, want 2", done500)
	}
}

// TestPanicLeavesNoStaleScratch: a request that panics mid-compute, after
// its instance was decoded into the worker's scratch and a larger trace
// before it filled the workspace, leaves nothing that reaches the next
// request on that worker — whose body is byte-identical to a fresh
// server's, for both endpoints.
func TestPanicLeavesNoStaleScratch(t *testing.T) {
	s := panicServer(Options{Workers: 1})
	defer drain(t, s)
	if rec := post(s, "/v1/iterate", missBody(128, 16, "kpb", true, 1)); rec.Code != http.StatusOK {
		t.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body.String())
	}
	for i, next := range []struct{ path, body string }{
		{"/v1/iterate", missBody(32, 4, "sufferage", false, 2)},
		{"/v1/map", missBody(48, 6, "duplex", true, 3)},
		{"/v1/iterate", iterateBody("min-min", "random", 4)},
	} {
		if rec := post(s, "/v1/iterate", missBody(64, 8+i, "swa", i%2 == 0, panicSeed)); rec.Code != http.StatusInternalServerError {
			t.Fatalf("panicking request %d: status %d, want 500", i, rec.Code)
		}
		got := post(s, next.path, next.body)
		fresh := NewServer(Options{})
		want := post(fresh, next.path, next.body)
		drain(t, fresh)
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("request %d after a panic: status %d, body differs from a fresh server's:\n got %.300s\nwant %.300s",
				i, got.Code, got.Body.Bytes(), want.Body.Bytes())
		}
	}
	if got := counterValue(t, s, "serve.panics_total"); got != 3 {
		t.Fatalf("serve.panics_total = %d, want 3", got)
	}
}

// TestResponseConservation pins the chaos harness's metrics-conservation
// invariant at the unit level: after a mix of outcomes (200, 405, 422, 500
// panic), serve.requests_total equals the sum of the per-outcome counters.
func TestResponseConservation(t *testing.T) {
	s := panicServer(Options{Workers: 1})
	defer drain(t, s)

	post(s, "/v1/iterate", iterateBody("min-min", "det", 1))         // 200 miss
	post(s, "/v1/iterate", iterateBody("min-min", "det", 1))         // 200 hit
	do(s, http.MethodGet, "/v1/map", "")                             // 405
	post(s, "/v1/map", `{"etc":[[0]],"heuristic":"met"}`)            // 422
	post(s, "/v1/iterate", iterateBody("min-min", "det", panicSeed)) // 500
	post(s, "/v1/map", "{")                                          // 400

	total := counterValue(t, s, "serve.requests_total")
	sum := counterValue(t, s, "serve.responses_2xx") +
		counterValue(t, s, "serve.responses_4xx") +
		counterValue(t, s, "serve.responses_5xx")
	if total != 6 || sum != total {
		t.Fatalf("requests_total=%d, 2xx+4xx+5xx=%d, want equal at 6", total, sum)
	}
	if got := counterValue(t, s, "serve.responses_2xx"); got != 2 {
		t.Fatalf("responses_2xx = %d, want 2", got)
	}
	if got := counterValue(t, s, "serve.responses_4xx"); got != 3 {
		t.Fatalf("responses_4xx = %d, want 3", got)
	}
	if got := counterValue(t, s, "serve.responses_5xx"); got != 1 {
		t.Fatalf("responses_5xx = %d, want 1", got)
	}
}

// TestRequestPathPanicSourcesUnreachable is the boundary audit for the
// panic sites reachable from library code: etc.MustNew (internal/etc),
// sched.MustInstance (internal/sched) and tiebreak.Choose's empty-candidate
// guard. The request path never calls the Must* constructors — parseRequest
// uses the error-returning forms behind validateRequest — and tiebreak
// policies only ever see candidate sets derived from a validated non-empty
// instance. This test drives every boundary input through the HTTP surface
// and asserts no 5xx escapes: degenerate shapes are 4xx envelopes, and
// every registered heuristic completes on the smallest legal instances.
func TestRequestPathPanicSourcesUnreachable(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)

	degenerate := []struct {
		name, body string
		want       int
	}{
		{"no tasks", `{"etc":[],"heuristic":"min-min"}`, http.StatusUnprocessableEntity},
		{"no machines", `{"etc":[[]],"heuristic":"min-min"}`, http.StatusUnprocessableEntity},
		{"all rows empty", `{"etc":[[],[]],"heuristic":"min-min"}`, http.StatusUnprocessableEntity},
		{"zero cell", `{"etc":[[0]],"heuristic":"min-min"}`, http.StatusUnprocessableEntity},
		{"negative cell", `{"etc":[[-5]],"heuristic":"min-min"}`, http.StatusUnprocessableEntity},
		// JSON has no NaN/Inf literals; an out-of-range number fails at
		// decode (400), so non-finite cells cannot reach the matrix at all.
		{"overflowing cell", `{"etc":[[1e999]],"heuristic":"min-min"}`, http.StatusBadRequest},
		{"nan literal", `{"etc":[[NaN]],"heuristic":"min-min"}`, http.StatusBadRequest},
		{"ready too long", `{"etc":[[1]],"heuristic":"min-min","ready":[0,0,0]}`, http.StatusUnprocessableEntity},
		{"ready negative", `{"etc":[[1]],"heuristic":"min-min","ready":[-0.5]}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range degenerate {
		t.Run(tc.name, func(t *testing.T) {
			for _, ep := range []string{"/v1/map", "/v1/iterate"} {
				rec := post(s, ep, tc.body)
				if rec.Code != tc.want {
					t.Fatalf("%s: status %d, want %d: %s", ep, rec.Code, tc.want, rec.Body.String())
				}
				if rec.Code >= 500 {
					t.Fatalf("%s: degenerate input reached a 5xx: %s", ep, rec.Body.String())
				}
			}
		})
	}

	// Every registered heuristic on the smallest legal instances: 1×1 and
	// 3×3 with heavy ties (all-equal cells maximize tiebreak.Choose calls,
	// so an empty-candidate panic would surface here if reachable).
	for _, name := range heuristics.Names() {
		for _, etcJSON := range []string{`[[1]]`, `[[2,2,2],[2,2,2],[2,2,2]]`} {
			for _, ties := range []string{"det", "random"} {
				body := fmt.Sprintf(`{"etc":%s,"heuristic":%q,"ties":%q,"seed":3}`, etcJSON, name, ties)
				for _, ep := range []string{"/v1/map", "/v1/iterate"} {
					rec := post(s, ep, body)
					if rec.Code != http.StatusOK {
						t.Fatalf("%s %s ties=%s etc=%s: status %d: %s",
							ep, name, ties, etcJSON, rec.Code, rec.Body.String())
					}
				}
			}
		}
	}
	if got := counterValue(t, s, "serve.panics_total"); got != 0 {
		t.Fatalf("serve.panics_total = %d, want 0", got)
	}
}

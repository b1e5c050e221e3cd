package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// do runs one request against the server's handler in-process.
func do(s *Server, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	return rec
}

func post(s *Server, path, body string) *httptest.ResponseRecorder {
	return do(s, http.MethodPost, path, body)
}

// iterateBody builds a /v1/iterate request body with the given seed.
func iterateBody(heuristic, ties string, seed uint64) string {
	return fmt.Sprintf(`{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":%q,"ties":%q,"seed":%d}`,
		heuristic, ties, seed)
}

func counterValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	for _, c := range s.Metrics().Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func TestMapEndpoint(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	rec := post(s, "/v1/map", `{"etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min"}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var mr MapResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2}; !equalInts(mr.Assign, want) {
		t.Fatalf("assign %v, want %v", mr.Assign, want)
	}
	if mr.Makespan != 4 {
		t.Fatalf("makespan %g, want 4", mr.Makespan)
	}
	if mr.Ties != "det" {
		t.Fatalf("ties %q, want det (default)", mr.Ties)
	}
}

func TestIterateEndpointPinnedTable1(t *testing.T) {
	// The Table-1 matrix: min-min under deterministic ties gives original
	// machine completions (5, 4, 2), and by the invariance theorem the
	// technique changes nothing, so the final completions and makespan
	// match and every machine is "unchanged".
	s := NewServer(Options{})
	defer drain(t, s)
	rec := post(s, "/v1/iterate", iterateBody("min-min", "det", 1))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var ir IterateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
		t.Fatal(err)
	}
	if want := []float64{5, 4, 2}; !equalFloats(ir.FinalCompletion, want) {
		t.Fatalf("final completion %v, want %v", ir.FinalCompletion, want)
	}
	if ir.OriginalMakespan != 5 || ir.FinalMakespan != 5 || ir.MakespanIncreased {
		t.Fatalf("makespan %g -> %g (increased=%v), want 5 -> 5",
			ir.OriginalMakespan, ir.FinalMakespan, ir.MakespanIncreased)
	}
	if len(ir.Iterations) != 3 {
		t.Fatalf("%d iterations, want 3", len(ir.Iterations))
	}
	if got := ir.Iterations[len(ir.Iterations)-1].Frozen; got != -1 {
		t.Fatalf("last iteration frozen %d, want -1", got)
	}
	for m, o := range ir.Outcomes {
		if o != "unchanged" {
			t.Fatalf("machine %d outcome %q, want unchanged", m, o)
		}
	}
}

func TestCacheHitByteIdentical(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	body := iterateBody("sufferage", "random", 42)
	first := post(s, "/v1/iterate", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Schedd-Cache"); got != "miss" {
		t.Fatalf("first request cache header %q, want miss", got)
	}
	second := post(s, "/v1/iterate", body)
	if got := second.Header().Get("X-Schedd-Cache"); got != "hit" {
		t.Fatalf("second request cache header %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("cache hit body differs from computed body:\n%s\nvs\n%s",
			first.Body.String(), second.Body.String())
	}
	if hits := counterValue(t, s, "serve.cache_hits"); hits != 1 {
		t.Fatalf("serve.cache_hits = %d, want 1", hits)
	}
}

func TestCacheKeyDistinguishesInputs(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	base := iterateBody("min-min", "det", 1)
	variants := []string{
		iterateBody("max-min", "det", 1),    // heuristic
		iterateBody("min-min", "random", 1), // ties
		iterateBody("min-min", "random", 2), // seed
		`{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":"min-min","ties":"det","seed":1,"ready":[1,0,0]}`, // ready
	}
	post(s, "/v1/iterate", base)
	for _, v := range variants {
		rec := post(s, "/v1/iterate", v)
		if rec.Code != http.StatusOK {
			t.Fatalf("variant status %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-Schedd-Cache"); got != "miss" {
			t.Fatalf("variant %s unexpectedly hit the cache", v)
		}
	}
	// The same matrix on the other endpoint must also miss.
	if rec := post(s, "/v1/map", base); rec.Header().Get("X-Schedd-Cache") != "miss" {
		t.Fatal("/v1/map reused a /v1/iterate cache entry")
	}
	// But an explicit all-zero ready vector normalizes to the omitted one.
	explicit := `{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":"min-min","ties":"det","seed":1,"ready":[0,0,0]}`
	if rec := post(s, "/v1/iterate", explicit); rec.Header().Get("X-Schedd-Cache") != "hit" {
		t.Fatal("explicit zero ready times should share the cache entry with omitted ready times")
	}
}

// TestConcurrentRequestsBitIdentical is the -race hammer: concurrent
// identical and distinct requests must all succeed and every body must be
// bit-identical to the body produced for the same request elsewhere,
// whether it came from a worker or the cache. Afterwards the cache-hit and
// cache-miss counters must account for every scheduling request.
func TestConcurrentRequestsBitIdentical(t *testing.T) {
	s := NewServer(Options{Workers: 4, QueueDepth: 1024})
	defer drain(t, s)

	const distinct = 6
	const perBody = 16
	bodies := make([]string, distinct)
	for i := range bodies {
		// Mix heuristics and tie policies across the distinct bodies.
		h := []string{"min-min", "max-min", "sufferage"}[i%3]
		ties := []string{"det", "random"}[i%2]
		bodies[i] = iterateBody(h, ties, uint64(i))
	}

	var wg sync.WaitGroup
	got := make([][]byte, distinct*perBody)
	codes := make([]int, distinct*perBody)
	for i := 0; i < distinct*perBody; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(s, "/v1/iterate", bodies[i%distinct])
			codes[i] = rec.Code
			got[i] = rec.Body.Bytes()
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, got[i])
		}
	}
	for i := distinct; i < len(got); i++ {
		if !bytes.Equal(got[i], got[i%distinct]) {
			t.Fatalf("request %d body differs from request %d for identical input:\n%s\nvs\n%s",
				i, i%distinct, got[i], got[i%distinct])
		}
	}
	hits := counterValue(t, s, "serve.cache_hits")
	misses := counterValue(t, s, "serve.cache_misses")
	coalesced := counterValue(t, s, "serve.coalesced_total")
	if hits+misses+coalesced != distinct*perBody {
		t.Fatalf("hits(%d)+misses(%d)+coalesced(%d) != %d requests", hits, misses, coalesced, distinct*perBody)
	}
	// Each distinct body is computed at least once; concurrent duplicates
	// either hit the cache or coalesce onto the in-flight computation.
	if misses < distinct {
		t.Fatalf("misses %d < %d distinct bodies", misses, distinct)
	}
}

// TestGracefulShutdown pins the drain contract: a request in flight when
// Drain begins finishes with its full (correct) response; requests arriving
// after Drain begins are refused with 503.
func TestGracefulShutdown(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	dequeued := make(chan *job)
	release := make(chan struct{})
	s.testHookDequeued = func(j *job) {
		dequeued <- j
		<-release
	}

	// Reference body computed on a second, unhooked server.
	ref := NewServer(Options{})
	refBody := post(ref, "/v1/iterate", iterateBody("min-min", "det", 1)).Body.Bytes()
	drain(t, ref)

	inflight := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		inflight <- post(s, "/v1/iterate", iterateBody("min-min", "det", 1))
	}()
	<-dequeued // the request is now being processed

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- s.Drain(ctx)
	}()
	// Wait until Drain has flipped the draining flag.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused immediately...
	if rec := post(s, "/v1/iterate", iterateBody("min-min", "det", 2)); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status %d, want 503", rec.Code)
	}
	if rec := do(s, http.MethodGet, "/healthz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", rec.Code)
	}

	// ...while the in-flight request completes with the full response.
	close(release)
	rec := <-inflight
	if rec.Code != http.StatusOK {
		t.Fatalf("in-flight request: status %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), refBody) {
		t.Fatalf("in-flight request body altered by drain:\n%s\nvs\n%s", rec.Body.String(), refBody)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Draining twice is fine.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

// TestQueueBackpressure pins the shedding contract with a single blocked
// worker: one request processing, QueueDepth waiting, and the next is shed
// with 429.
func TestQueueBackpressure(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	dequeued := make(chan *job, 4)
	release := make(chan struct{})
	s.testHookDequeued = func(j *job) {
		select {
		case dequeued <- j:
		default:
		}
		<-release // closed once the test is done holding the worker
	}

	results := make(chan *httptest.ResponseRecorder, 2)
	go func() { results <- post(s, "/v1/iterate", iterateBody("min-min", "det", 1)) }()
	<-dequeued // worker busy with request 1
	go func() { results <- post(s, "/v1/iterate", iterateBody("min-min", "det", 2)) }()
	// Wait until request 2 occupies the queue slot.
	for s.queued.Load() != 1 {
		time.Sleep(time.Millisecond)
	}

	rec := post(s, "/v1/iterate", iterateBody("min-min", "det", 3))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("shed 429 Retry-After %q, want 1", got)
	}
	if shed := counterValue(t, s, "serve.shed_total"); shed != 1 {
		t.Fatalf("serve.shed_total = %d, want 1", shed)
	}

	close(release)
	for i := 0; i < 2; i++ {
		if rec := <-results; rec.Code != http.StatusOK {
			t.Fatalf("queued request: status %d: %s", rec.Code, rec.Body.String())
		}
	}
	drain(t, s)
}

// TestRequestTimeout pins the deadline contract: a request whose deadline
// expires gets 504 and no scheduling content; the deadline never corrupts
// later identical requests.
func TestRequestTimeout(t *testing.T) {
	s := NewServer(Options{Workers: 1})
	release := make(chan struct{})
	s.testHookDequeued = func(j *job) { <-release } // closed after the 504 is observed

	body := `{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":"min-min","timeout_ms":30}`
	rec := post(s, "/v1/iterate", body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	if timeouts := counterValue(t, s, "serve.timeouts_total"); timeouts == 0 {
		t.Fatal("serve.timeouts_total not incremented")
	}
	close(release)

	// The same request without the tight deadline serves normally.
	ok := post(s, "/v1/iterate", iterateBody("min-min", "det", 0))
	if ok.Code != http.StatusOK {
		t.Fatalf("follow-up: status %d: %s", ok.Code, ok.Body.String())
	}
	drain(t, s)
}

// TestDrainHonoursDeadline: a worker still computing a job whose handler
// already answered 504 must not hold Drain past its context. Drain returns
// the context's error in time, and once the worker finishes, a second
// Drain completes the stop.
func TestDrainHonoursDeadline(t *testing.T) {
	s := NewServer(Options{Workers: 1, RequestTimeout: 20 * time.Millisecond})
	entered, release := make(chan struct{}), make(chan struct{})
	s.testHookDequeued = func(j *job) {
		close(entered)
		<-release
	}
	if rec := post(s, "/v1/iterate", iterateBody("min-min", "det", 1)); rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.String())
	}
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with a busy worker = %v, want %v", err, context.DeadlineExceeded)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Drain returned after %v, want its 200ms deadline to hold", d)
	}
	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second Drain: %v", err)
	}
}

func TestRequestValidation(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	cases := []struct {
		name, method, path, body string
		want                     int
		code                     string
		// field, when non-empty, must appear among the 422's field paths.
		field string
	}{
		{"method", http.MethodGet, "/v1/map", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed, ""},
		{"bad json", http.MethodPost, "/v1/map", "{", http.StatusBadRequest, CodeBadRequest, ""},
		{"unknown field", http.MethodPost, "/v1/map", `{"etc":[[1]],"heuristic":"met","sead":1}`, http.StatusBadRequest, CodeBadRequest, ""},
		{"trailing data", http.MethodPost, "/v1/map", `{"etc":[[1]],"heuristic":"met"}{}`, http.StatusBadRequest, CodeBadRequest, ""},
		{"empty matrix", http.MethodPost, "/v1/map", `{"etc":[],"heuristic":"met"}`, http.StatusUnprocessableEntity, CodeValidationFailed, "etc"},
		{"empty row", http.MethodPost, "/v1/map", `{"etc":[[]],"heuristic":"met"}`, http.StatusUnprocessableEntity, CodeValidationFailed, "etc[0]"},
		{"non-positive entry", http.MethodPost, "/v1/map", `{"etc":[[0]],"heuristic":"met"}`, http.StatusUnprocessableEntity, CodeValidationFailed, "etc[0][0]"},
		{"negative entry", http.MethodPost, "/v1/map", `{"etc":[[1,2],[-3,4]],"heuristic":"met"}`, http.StatusUnprocessableEntity, CodeValidationFailed, "etc[1][0]"},
		{"ragged matrix", http.MethodPost, "/v1/map", `{"etc":[[1,2],[3]],"heuristic":"met"}`, http.StatusUnprocessableEntity, CodeValidationFailed, "etc[1]"},
		{"unknown heuristic", http.MethodPost, "/v1/map", `{"etc":[[1]],"heuristic":"nope"}`, http.StatusUnprocessableEntity, CodeValidationFailed, "heuristic"},
		{"unknown ties", http.MethodPost, "/v1/map", `{"etc":[[1]],"heuristic":"met","ties":"coin"}`, http.StatusUnprocessableEntity, CodeValidationFailed, "ties"},
		{"bad ready", http.MethodPost, "/v1/map", `{"etc":[[1]],"heuristic":"met","ready":[-1]}`, http.StatusUnprocessableEntity, CodeValidationFailed, "ready[0]"},
		{"ready shape", http.MethodPost, "/v1/map", `{"etc":[[1]],"heuristic":"met","ready":[0,0]}`, http.StatusUnprocessableEntity, CodeValidationFailed, "ready"},
		{"negative timeout", http.MethodPost, "/v1/map", `{"etc":[[1]],"heuristic":"met","timeout_ms":-5}`, http.StatusUnprocessableEntity, CodeValidationFailed, "timeout_ms"},
		{"healthz method", http.MethodPost, "/healthz", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed, ""},
		{"metricz method", http.MethodPost, "/metricz", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(s, tc.method, tc.path, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.want, rec.Body.String())
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code == "" || er.Error.Message == "" {
				t.Fatalf("error body not the envelope: %s", rec.Body.String())
			}
			if er.Error.Code != tc.code {
				t.Fatalf("error code %q, want %q: %s", er.Error.Code, tc.code, rec.Body.String())
			}
			if tc.field != "" {
				found := false
				for _, f := range er.Error.Fields {
					if f.Path == tc.field {
						found = true
					}
				}
				if !found {
					t.Fatalf("422 fields missing path %q: %s", tc.field, rec.Body.String())
				}
			}
		})
	}
}

// TestValidationCollectsMultipleFields pins the 422 contract: one response
// reports every invalid field (up to the cap), and the message carries the
// uncapped total.
func TestValidationCollectsMultipleFields(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	body := `{"etc":[[0,1],[2,-3]],"heuristic":"nope","ties":"coin","timeout_ms":-1}`
	rec := post(s, "/v1/map", body)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	want := []string{"etc[0][0]", "etc[1][1]", "heuristic", "ties", "timeout_ms"}
	if len(er.Error.Fields) != len(want) {
		t.Fatalf("%d field errors, want %d: %s", len(er.Error.Fields), len(want), rec.Body.String())
	}
	for i, f := range er.Error.Fields {
		if f.Path != want[i] {
			t.Fatalf("field %d path %q, want %q", i, f.Path, want[i])
		}
	}
	if !strings.Contains(er.Error.Message, "5 invalid field") {
		t.Fatalf("message should carry the total count: %q", er.Error.Message)
	}

	// A hostile matrix full of invalid cells is capped at maxFieldErrors
	// entries, with the full count in the message.
	rows := make([]string, 10)
	for i := range rows {
		rows[i] = "[-1,-1,-1]"
	}
	big := `{"etc":[` + strings.Join(rows, ",") + `],"heuristic":"min-min"}`
	rec = post(s, "/v1/map", big)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", rec.Code, rec.Body.String())
	}
	er = ErrorResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Error.Fields) != maxFieldErrors {
		t.Fatalf("%d field errors, want cap %d", len(er.Error.Fields), maxFieldErrors)
	}
	if !strings.Contains(er.Error.Message, "30 invalid field") {
		t.Fatalf("message should carry the uncapped total: %q", er.Error.Message)
	}
}

// TestAdmissionGuards pins the resource-guard contract: requests over the
// cell cap or the memory estimate are refused with 413 before any per-cell
// validation work, at the caps every server enforces.
func TestAdmissionGuards(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	// MaxCells+1 one-digit cells, 5 rows of 52 429: a 512 KiB body.
	rec := post(s, "/v1/map", `{"etc":`+onesMatrix(5, (MaxCells+1)/5)+`,"heuristic":"met"}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %.200s", rec.Code, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != CodePayloadTooLarge {
		t.Fatalf("413 envelope: %s", rec.Body.String())
	}
	if want := fmt.Sprintf("%d cells", MaxCells+1); !strings.Contains(er.Error.Message, want) {
		t.Fatalf("413 should name the cell count %q: %q", want, er.Error.Message)
	}
	// MaxCells cells, 512×512, pass the guard.
	if rec := post(s, "/v1/map", `{"etc":`+onesMatrix(512, 512)+`,"heuristic":"met"}`); rec.Code != http.StatusOK {
		t.Fatalf("at-cap request: status %d: %.200s", rec.Code, rec.Body.String())
	}

	// 1×1200 with a late ready time may run 1200 iterations, each
	// charged for the whole width: over MaxEstimatedBytes with 1 200 cells.
	ready := "[1" + strings.Repeat(",0", 1199) + "]"
	rec = post(s, "/v1/iterate", `{"etc":`+onesMatrix(1, 1200)+`,"ready":`+ready+`,"heuristic":"min-min"}`)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("estimate guard: status %d, want 413: %.200s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error.Message, "estimated memory") {
		t.Fatalf("estimate guard envelope: %s", rec.Body.String())
	}
}

// onesMatrix is a rows×cols JSON matrix of ones.
func onesMatrix(rows, cols int) string {
	row := "[1" + strings.Repeat(",1", cols-1) + "]"
	return "[" + row + strings.Repeat(","+row, rows-1) + "]"
}

func TestHealthzAndMetricz(t *testing.T) {
	collector := &obs.Collector{}
	s := NewServer(Options{Observer: collector})
	defer drain(t, s)

	rec := do(s, http.MethodGet, "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	var h healthState
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers <= 0 {
		t.Fatalf("healthz body %+v", h)
	}

	post(s, "/v1/map", `{"etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min","seed":7}`)

	rec = do(s, http.MethodGet, "/metricz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metricz: status %d", rec.Code)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range snap.Counters {
		if c.Name == "serve.requests_total" && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("metricz missing serve.requests_total=1: %s", rec.Body.String())
	}
	if rec := do(s, http.MethodGet, "/metricz?format=text", ""); !strings.Contains(rec.Body.String(), "serve.requests_total") {
		t.Fatalf("metricz text rendering missing counters: %s", rec.Body.String())
	}

	// The access log captured the scheduling request.
	events := collector.Events()
	var reqDone []obs.RequestDone
	for _, e := range events {
		if rd, ok := e.(obs.RequestDone); ok {
			reqDone = append(reqDone, rd)
		}
	}
	if len(reqDone) != 1 {
		t.Fatalf("%d request_done events, want 1 (events: %v)", len(reqDone), events)
	}
	rd := reqDone[0]
	if rd.Endpoint != "/v1/map" || rd.Status != 200 || rd.Cache != "miss" ||
		rd.Heuristic != "min-min" || rd.Seed != 7 || rd.Tasks != 3 || rd.Machines != 3 {
		t.Fatalf("request_done event %+v", rd)
	}
}

func TestCacheDisabled(t *testing.T) {
	s := NewServer(Options{CacheEntries: -1})
	defer drain(t, s)
	body := iterateBody("min-min", "det", 1)
	a := post(s, "/v1/iterate", body)
	b := post(s, "/v1/iterate", body)
	if a.Header().Get("X-Schedd-Cache") != "miss" || b.Header().Get("X-Schedd-Cache") != "miss" {
		t.Fatal("disabled cache still served a hit")
	}
	if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatal("recomputed responses differ for identical requests")
	}
}

// TestOversizedBodyReturns413 pins the body-limit contract: a request
// larger than MaxBodyBytes is 413 Request Entity Too Large, not a generic
// 400 (the limit error used to be swallowed by the read-error path).
func TestOversizedBodyReturns413(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	// MaxBodyBytes + 1 bytes.
	head, tail := `{"etc":[[1]],"heuristic":"min-min","ties":"`, `"}`
	big := head + strings.Repeat("x", MaxBodyBytes+1-len(head)-len(tail)) + tail
	rec := post(s, "/v1/map", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %.200s", rec.Code, rec.Body.String())
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error.Code != CodePayloadTooLarge || !strings.Contains(er.Error.Message, strconv.Itoa(MaxBodyBytes)) {
		t.Fatalf("413 body should carry code %q and name the limit: %s", CodePayloadTooLarge, rec.Body.String())
	}
	// A body under the limit still parses (the limit, not the detector,
	// decides).
	if rec := post(s, "/v1/map", `{"etc":[[1]],"heuristic":"met"}`); rec.Code != http.StatusOK {
		t.Fatalf("small body status %d: %s", rec.Code, rec.Body.String())
	}
}

// TestMethodNotAllowedSetsAllow pins RFC 9110: every 405 carries the Allow
// header naming the methods the resource supports.
func TestMethodNotAllowedSetsAllow(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	cases := []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/v1/map", "POST"},
		{http.MethodDelete, "/v1/iterate", "POST"},
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodPost, "/metricz", "GET"},
	}
	for _, tc := range cases {
		rec := do(s, tc.method, tc.path, "")
		if rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", tc.method, tc.path, rec.Code)
		}
		if got := rec.Header().Get("Allow"); got != tc.allow {
			t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, got, tc.allow)
		}
	}
}

// TestRequestsTotalCountsRejections pins the counting contract: scheduling
// arrivals rejected with 405 or draining-503 count in serve.requests_total
// exactly like shed 429s always did.
func TestRequestsTotalCountsRejections(t *testing.T) {
	s := NewServer(Options{})
	if rec := do(s, http.MethodGet, "/v1/map", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
	if got := counterValue(t, s, "serve.requests_total"); got != 1 {
		t.Fatalf("serve.requests_total = %d after 405, want 1", got)
	}
	drain(t, s)
	if rec := post(s, "/v1/map", `{"etc":[[1]],"heuristic":"met"}`); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while drained", rec.Code)
	}
	if got := counterValue(t, s, "serve.requests_total"); got != 2 {
		t.Fatalf("serve.requests_total = %d after draining 503, want 2", got)
	}
	// healthz/metricz are not scheduling requests and stay uncounted.
	do(s, http.MethodGet, "/metricz", "")
	if got := counterValue(t, s, "serve.requests_total"); got != 2 {
		t.Fatalf("serve.requests_total = %d after metricz, want 2", got)
	}
}

// TestSingleflightCoalescesIdenticalMisses pins the coalescing contract:
// N concurrent identical cache misses produce exactly one computation; the
// followers wait for the leader's bytes and every response is
// byte-identical. Run under -race by scripts/check.sh.
func TestSingleflightCoalescesIdenticalMisses(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueDepth: 8})
	dequeued := make(chan *job, 1)
	release := make(chan struct{})
	s.testHookDequeued = func(j *job) {
		select {
		case dequeued <- j:
		default:
		}
		<-release
	}

	const followers = 7
	body := iterateBody("sufferage", "random", 99)
	results := make(chan *httptest.ResponseRecorder, followers+1)
	go func() { results <- post(s, "/v1/iterate", body) }()
	<-dequeued // the leader's job is being held in the worker
	for i := 0; i < followers; i++ {
		go func() { results <- post(s, "/v1/iterate", body) }()
	}
	// Followers register before the leader resolves; wait for all of them.
	for counterValue(t, s, "serve.coalesced_total") != followers {
		time.Sleep(time.Millisecond)
	}
	close(release)

	var bodies [][]byte
	for i := 0; i < followers+1; i++ {
		rec := <-results
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		bodies = append(bodies, rec.Body.Bytes())
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if misses := counterValue(t, s, "serve.cache_misses"); misses != 1 {
		t.Fatalf("serve.cache_misses = %d, want 1 (one computation for %d identical requests)", misses, followers+1)
	}
	if hits := counterValue(t, s, "serve.cache_hits"); hits != 0 {
		t.Fatalf("serve.cache_hits = %d, want 0", hits)
	}
	// After the flight resolves, the cache serves the same bytes.
	rec := post(s, "/v1/iterate", body)
	if rec.Header().Get("X-Schedd-Cache") != "hit" || !bytes.Equal(rec.Body.Bytes(), bodies[0]) {
		t.Fatalf("post-flight request: cache %q", rec.Header().Get("X-Schedd-Cache"))
	}
	drain(t, s)
}

func equalInts(a, b []int) bool {
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

func equalFloats(a, b []float64) bool {
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

package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
)

// newTestClient builds a client with a fake clock and recorded sleeps so
// tests never wait on real wall-clock.
func newTestClient(opts Options) (*Client, *fakeTime) {
	c := New(opts)
	ft := &fakeTime{t: time.Unix(1000, 0)}
	c.now = ft.now
	c.sleep = ft.sleep
	return c, ft
}

type fakeTime struct {
	mu     sync.Mutex
	t      time.Time
	slept  []time.Duration
	target *Client // advance this client's clock while "sleeping"
}

func (f *fakeTime) now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeTime) sleep(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slept = append(f.slept, d)
	f.t = f.t.Add(d)
	return ctx.Err()
}

func (f *fakeTime) advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.t = f.t.Add(d)
}

func counterValue(t *testing.T, reg *obs.Metrics, name string) int64 {
	t.Helper()
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// flaky serves failures for the first n requests, then succeeds with body.
func flaky(n int, failStatus int, retryAfter string, body []byte) (*httptest.Server, *atomic.Int64) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(failStatus)
			return
		}
		w.Header().Set("X-Schedd-Cache", "miss")
		w.Write(body)
	}))
	return ts, &hits
}

func TestRetriesUntilSuccess(t *testing.T) {
	want := []byte(`{"ok":true}` + "\n")
	ts, hits := flaky(2, http.StatusServiceUnavailable, "", want)
	defer ts.Close()
	reg := obs.NewMetrics()
	collector := &obs.Collector{}
	c, _ := newTestClient(Options{MaxRetries: 3, Seed: 1, Metrics: reg, Observer: collector})
	resp, err := c.Post(context.Background(), ts.URL, []byte("{}"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if !bytes.Equal(resp.Body, want) || resp.Cache != "miss" || resp.Attempts != 3 {
		t.Fatalf("resp %+v", resp)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3", got)
	}
	if got := counterValue(t, reg, "client.retries_total"); got != 2 {
		t.Fatalf("client.retries_total = %d, want 2", got)
	}
	var retries int
	for _, e := range collector.Events() {
		if cr, ok := e.(obs.ClientRetry); ok {
			retries++
			if cr.Status != http.StatusServiceUnavailable || cr.URL != ts.URL {
				t.Fatalf("retry event %+v", cr)
			}
		}
	}
	if retries != 2 {
		t.Fatalf("%d client_retry events, want 2", retries)
	}
}

func TestRetriesExhausted(t *testing.T) {
	ts, hits := flaky(100, http.StatusServiceUnavailable, "", nil)
	defer ts.Close()
	c, _ := newTestClient(Options{MaxRetries: 2, Seed: 1})
	_, err := c.Post(context.Background(), ts.URL, []byte("{}"))
	if err == nil {
		t.Fatal("want error after exhausted retries")
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("err %v, want wrapped StatusError 503", err)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (1 + 2 retries)", got)
	}
}

func TestPermanentStatusNotRetried(t *testing.T) {
	ts, hits := flaky(100, http.StatusBadRequest, "", nil)
	defer ts.Close()
	c, _ := newTestClient(Options{MaxRetries: 5, Seed: 1})
	_, err := c.Post(context.Background(), ts.URL, []byte("{"))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err %v, want StatusError 400", err)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (400 is deterministic)", got)
	}
}

func TestRetryAfterHonoredUpToCap(t *testing.T) {
	ts, _ := flaky(1, http.StatusTooManyRequests, "1", []byte("ok"))
	defer ts.Close()
	c, ft := newTestClient(Options{MaxRetries: 2, BaseBackoff: time.Millisecond, MaxBackoff: 100 * time.Millisecond, Seed: 1})
	if _, err := c.Post(context.Background(), ts.URL, nil); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if len(ft.slept) != 1 {
		t.Fatalf("%d sleeps, want 1", len(ft.slept))
	}
	// Retry-After of 1s beats the ~1ms computed backoff but is capped at
	// MaxBackoff.
	if ft.slept[0] != 100*time.Millisecond {
		t.Fatalf("slept %v, want the 100ms MaxBackoff cap", ft.slept[0])
	}
}

func TestBackoffJitterDeterministic(t *testing.T) {
	run := func() []time.Duration {
		ts, _ := flaky(4, http.StatusServiceUnavailable, "", []byte("ok"))
		defer ts.Close()
		c, ft := newTestClient(Options{MaxRetries: 4, BaseBackoff: 16 * time.Millisecond, Seed: 9})
		if _, err := c.Post(context.Background(), ts.URL, nil); err != nil {
			t.Fatalf("Post: %v", err)
		}
		return ft.slept
	}
	a, b := run(), run()
	if len(a) != 4 {
		t.Fatalf("%d sleeps, want 4", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sleep %d differs: %v vs %v (jitter not seed-deterministic)", i, a[i], b[i])
		}
		min := 16 * time.Millisecond << i / 2
		max := 16 * time.Millisecond << i
		if a[i] < min || a[i] >= max {
			t.Fatalf("sleep %d = %v outside jitter window [%v, %v)", i, a[i], min, max)
		}
	}
}

func TestPerAttemptTimeout(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer ts.Close()
	defer close(stall) // LIFO: release the handler before ts.Close waits on it
	c, _ := newTestClient(Options{MaxRetries: 1, Timeout: 50 * time.Millisecond, Seed: 1})
	start := time.Now()
	_, err := c.Post(context.Background(), ts.URL, nil)
	if err == nil {
		t.Fatal("want error from stalled server")
	}
	// Two attempts at 50ms each plus fake (instant) backoff: well under 5s.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled server held the client %v", elapsed)
	}
}

func TestTruncatedBodyRetried(t *testing.T) {
	want := []byte(`{"full":"body"}` + "\n")
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			// Promise more bytes than delivered, then sever: the client
			// must treat the partial body as a failure, not a response.
			w.Header().Set("Content-Length", "100")
			w.Write(want[:5])
			if fl, ok := w.(http.Flusher); ok {
				fl.Flush()
			}
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		w.Write(want)
	}))
	defer ts.Close()
	c, _ := newTestClient(Options{MaxRetries: 2, Seed: 1})
	resp, err := c.Post(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if !bytes.Equal(resp.Body, want) {
		t.Fatalf("body %q, want the full %q", resp.Body, want)
	}
	if resp.Attempts != 2 {
		t.Fatalf("attempts %d, want 2", resp.Attempts)
	}
}

func TestShortBodyIsAnError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		w.Write([]byte(`{"partial"`))
		if fl, ok := w.(http.Flusher); ok {
			fl.Flush()
		}
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
	}))
	defer ts.Close()
	c, _ := newTestClient(Options{MaxRetries: 0, Seed: 1})
	if resp, err := c.Post(context.Background(), ts.URL, nil); err == nil || resp != nil {
		t.Fatalf("Post = %+v, %v; want an error and no response", resp, err)
	}
	// The same for a reader that ends early or at once.
	for _, r := range []io.Reader{strings.NewReader("abc"), strings.NewReader("")} {
		if b, err := readBody(r, 10, nil); err == nil || b != nil {
			t.Fatalf("readBody of a short body = %q, %v; want an error", b, err)
		}
	}
}

func TestZeroLengthBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "0")
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	c, _ := newTestClient(Options{Seed: 1})
	resp, err := c.Post(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if len(resp.Body) != 0 || resp.Status != http.StatusOK {
		t.Fatalf("resp %+v, want an empty 200", resp)
	}
}

func TestOverCapLengthReadsAsItArrives(t *testing.T) {
	want := bytes.Repeat([]byte("x"), exactBodyCap+1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(want)))
		w.Write(want)
	}))
	defer ts.Close()
	c, _ := newTestClient(Options{Seed: 1})
	resp, err := c.Post(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if !bytes.Equal(resp.Body, want) {
		t.Fatalf("body of %d bytes, want %d", len(resp.Body), len(want))
	}
	// Over the cap the declared length is not trusted with a buffer: a
	// short body under a huge Content-Length costs only what arrived.
	b, err := readBody(strings.NewReader("abc"), 1<<40, nil)
	if err != nil || string(b) != "abc" || cap(b) >= exactBodyCap {
		t.Fatalf("readBody over the cap = %q (cap %d), %v", b, cap(b), err)
	}
}

// TestKnownLengthBodyReadsIntoOneBuffer is the relay-copy alloc check: a
// body of known length costs one exact-size allocation, where io.ReadAll
// grows a buffer from 512 bytes.
func TestKnownLengthBodyReadsIntoOneBuffer(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789abcdef"), 512) // 8 KiB
	var r bytes.Reader
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(body)
		b, err := readBody(&r, int64(len(body)), nil)
		if err != nil || len(b) != len(body) || cap(b) != len(body) {
			t.Fatalf("readBody = %d bytes (cap %d), %v", len(b), cap(b), err)
		}
	})
	if allocs != 1 {
		t.Fatalf("readBody of a known-length body: %v allocs, want 1", allocs)
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	reg := obs.NewMetrics()
	collector := &obs.Collector{}
	c, ft := newTestClient(Options{
		MaxRetries: -1, BreakerThreshold: 2, BreakerCooldown: time.Second,
		Seed: 1, Metrics: reg, Observer: collector,
	})

	// Two consecutive failures open the breaker.
	for i := 0; i < 2; i++ {
		if _, err := c.Post(context.Background(), ts.URL, nil); err == nil {
			t.Fatal("want failure")
		}
	}
	if got := counterValue(t, reg, "client.breaker_open_total"); got != 1 {
		t.Fatalf("client.breaker_open_total = %d, want 1", got)
	}

	// While open, requests fail fast without touching the server.
	before := hits.Load()
	if _, err := c.Post(context.Background(), ts.URL, nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err %v, want ErrBreakerOpen", err)
	}
	if hits.Load() != before {
		t.Fatal("open breaker let a request through")
	}
	if got := counterValue(t, reg, "client.fastfail_total"); got != 1 {
		t.Fatalf("client.fastfail_total = %d, want 1", got)
	}

	// After the cooldown a probe goes through; still unhealthy -> reopen.
	ft.advance(2 * time.Second)
	if _, err := c.Post(context.Background(), ts.URL, nil); errors.Is(err, ErrBreakerOpen) || err == nil {
		t.Fatalf("probe err %v, want a server failure", err)
	}
	if got := counterValue(t, reg, "client.breaker_open_total"); got != 2 {
		t.Fatalf("client.breaker_open_total = %d, want 2 (failed probe reopens)", got)
	}

	// Healthy probe after another cooldown closes the breaker.
	healthy.Store(true)
	ft.advance(2 * time.Second)
	resp, err := c.Post(context.Background(), ts.URL, nil)
	if err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if string(resp.Body) != "ok" {
		t.Fatalf("body %q", resp.Body)
	}
	if got := counterValue(t, reg, "client.breaker_closed_total"); got != 1 {
		t.Fatalf("client.breaker_closed_total = %d, want 1", got)
	}

	// The transitions were observed in order.
	var seq []string
	for _, e := range collector.Events() {
		if bt, ok := e.(obs.BreakerTransition); ok {
			seq = append(seq, bt.From+">"+bt.To)
		}
	}
	want := []string{"closed>open", "open>half-open", "half-open>open", "open>half-open", "half-open>closed"}
	if len(seq) != len(want) {
		t.Fatalf("transitions %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q (all: %v)", i, seq[i], want[i], seq)
		}
	}
}

func TestBreakerDisabled(t *testing.T) {
	ts, hits := flaky(100, http.StatusServiceUnavailable, "", nil)
	defer ts.Close()
	c, _ := newTestClient(Options{MaxRetries: -1, BreakerThreshold: -1, Seed: 1})
	for i := 0; i < 10; i++ {
		if _, err := c.Post(context.Background(), ts.URL, nil); errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("request %d: breaker fired while disabled", i)
		}
	}
	if got := hits.Load(); got != 10 {
		t.Fatalf("server saw %d requests, want all 10", got)
	}
}

func TestContextCancelStopsRetries(t *testing.T) {
	ts, _ := flaky(100, http.StatusServiceUnavailable, "", nil)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(Options{MaxRetries: 5, Seed: 1})
	ft := &fakeTime{t: time.Unix(1000, 0)}
	c.now = ft.now
	c.sleep = ft.sleep // returns ctx.Err() once cancelled
	if _, err := c.Post(ctx, ts.URL, nil); err == nil {
		t.Fatal("want error with cancelled context")
	}
}

// TestBreakerHalfOpenSingleProbe races seven concurrent requests against an
// in-flight half-open probe and requires exactly one probe to be admitted:
// the losers fail fast with ErrBreakerOpen and never reach the server. Run
// under -race this also proves the breaker's state handoff is data-race
// free.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	probeArrived := make(chan struct{})
	release := make(chan struct{})
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 2:
			close(probeArrived)
			<-release
			w.Write([]byte("ok"))
		default:
			w.Write([]byte("ok"))
		}
	}))
	defer ts.Close()
	reg := obs.NewMetrics()
	c, ft := newTestClient(Options{
		MaxRetries: -1, BreakerThreshold: 1, BreakerCooldown: time.Second,
		Seed: 1, Metrics: reg,
	})

	// One failure opens the breaker (threshold 1); the cooldown elapses.
	if _, err := c.Post(context.Background(), ts.URL, nil); err == nil {
		t.Fatal("want a failure to open the breaker")
	}
	if got := counterValue(t, reg, "client.breaker_open_total"); got != 1 {
		t.Fatalf("client.breaker_open_total = %d, want 1", got)
	}
	ft.advance(2 * time.Second)

	// The probe is admitted and parks inside the handler.
	probeDone := make(chan error, 1)
	go func() {
		_, err := c.Post(context.Background(), ts.URL, nil)
		probeDone <- err
	}()
	<-probeArrived

	// Concurrent requests while the probe is in flight: all must fail fast.
	const losers = 7
	errs := make([]error, losers)
	var wg sync.WaitGroup
	for i := 0; i < losers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Post(context.Background(), ts.URL, nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("loser %d: err %v, want ErrBreakerOpen", i, err)
		}
	}
	if got := counterValue(t, reg, "client.fastfail_total"); got != losers {
		t.Fatalf("client.fastfail_total = %d, want %d", got, losers)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (opener + probe); a loser slipped past the breaker", got)
	}

	// Releasing the probe closes the breaker and traffic flows again.
	close(release)
	if err := <-probeDone; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := counterValue(t, reg, "client.breaker_closed_total"); got != 1 {
		t.Fatalf("client.breaker_closed_total = %d, want 1", got)
	}
	resp, err := c.Post(context.Background(), ts.URL, nil)
	if err != nil || string(resp.Body) != "ok" {
		t.Fatalf("post-recovery request: %v %q", err, resp)
	}
}

func TestBreakerStateReadout(t *testing.T) {
	probeArrived := make(chan struct{})
	release := make(chan struct{})
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
		case 2:
			close(probeArrived)
			<-release
			w.Write([]byte("ok"))
		default:
			w.Write([]byte("ok"))
		}
	}))
	defer ts.Close()
	c, ft := newTestClient(Options{MaxRetries: -1, BreakerThreshold: 1, BreakerCooldown: time.Second, Seed: 1})

	if got := c.BreakerState(); got != "closed" {
		t.Fatalf("fresh client BreakerState = %q, want closed", got)
	}
	if _, err := c.Post(context.Background(), ts.URL, nil); err == nil {
		t.Fatal("want a failure to open the breaker")
	}
	if got := c.BreakerState(); got != "open" {
		t.Fatalf("after threshold failures BreakerState = %q, want open", got)
	}
	// The accessor is read-only: an expired cooldown must not advance the
	// breaker to half-open — only an admitted request does that.
	ft.advance(2 * time.Second)
	if got := c.BreakerState(); got != "open" {
		t.Fatalf("after cooldown BreakerState = %q, want open (readout must not probe)", got)
	}
	probeDone := make(chan error, 1)
	go func() {
		_, err := c.Post(context.Background(), ts.URL, nil)
		probeDone <- err
	}()
	<-probeArrived
	if got := c.BreakerState(); got != "half-open" {
		t.Fatalf("probe in flight BreakerState = %q, want half-open", got)
	}
	close(release)
	if err := <-probeDone; err != nil {
		t.Fatalf("probe: %v", err)
	}
	if got := c.BreakerState(); got != "closed" {
		t.Fatalf("after successful probe BreakerState = %q, want closed", got)
	}
}

func TestRetryableExport(t *testing.T) {
	for _, tc := range []struct {
		status int
		want   bool
	}{
		{http.StatusOK, false},
		{http.StatusBadRequest, false},
		{http.StatusUnprocessableEntity, false},
		{http.StatusTooManyRequests, true},
		{http.StatusInternalServerError, true},
		{http.StatusBadGateway, true},
		{http.StatusServiceUnavailable, true},
		{http.StatusGatewayTimeout, true},
	} {
		if got := Retryable(tc.status); got != tc.want {
			t.Fatalf("Retryable(%d) = %v, want %v", tc.status, got, tc.want)
		}
	}
}

// lengthRecorder is a RoundTripper that records each response's declared
// Content-Length (-1 when chunked).
type lengthRecorder struct {
	lengths []int64
}

func (l *lengthRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		l.lengths = append(l.lengths, resp.ContentLength)
	}
	return resp, err
}

// TestServeBodyReadsIntoOneBuffer: a real serve.Server frames a body over
// net/http's 2 KiB response buffer with its exact Content-Length, so the
// client reads it into one buffer of exactly that size.
func TestServeBodyReadsIntoOneBuffer(t *testing.T) {
	s := serve.NewServer(serve.Options{Workers: 1})
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	src := rng.New(7)
	var etc strings.Builder
	for i := 0; i < 96; i++ {
		if i > 0 {
			etc.WriteByte(',')
		}
		fmt.Fprintf(&etc, "[%g,%g,%g,%g]", src.UniformRange(1, 3000), src.UniformRange(1, 3000),
			src.UniformRange(1, 3000), src.UniformRange(1, 3000))
	}
	body := []byte(`{"etc":[` + etc.String() + `],"heuristic":"min-min","ties":"det"}`)
	rec := &lengthRecorder{}
	c, _ := newTestClient(Options{Seed: 1, HTTPClient: &http.Client{Transport: rec}})
	resp, err := c.Post(context.Background(), ts.URL+"/v1/iterate", body)
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	if len(resp.Body) <= 2048 {
		t.Fatalf("response is %d bytes, want over 2048", len(resp.Body))
	}
	if len(rec.lengths) != 1 || rec.lengths[0] != int64(len(resp.Body)) {
		t.Fatalf("declared lengths %v for a %d-byte body", rec.lengths, len(resp.Body))
	}
	if cap(resp.Body) != len(resp.Body) {
		t.Fatalf("body read into a %d-byte buffer for %d bytes", cap(resp.Body), len(resp.Body))
	}
}

// TestRecoversThroughFaultInjector: the resilient client against a real
// serve stack behind the seeded fault injector. Injected 503s, dropped
// connections and truncated bodies cost retries, never correctness: every
// replay of the pinned Table-1 request recovers the cleanly computed bytes,
// and the shared registry shows each fault kind was injected and retried
// through. Keep-alives are off so every arrival at the injector is an
// attempt the client made.
func TestRecoversThroughFaultInjector(t *testing.T) {
	reg := obs.NewMetrics()
	s := serve.NewServer(serve.Options{Workers: 1, Metrics: reg})
	defer s.Drain(context.Background())
	clean := httptest.NewServer(s.Handler())
	defer clean.Close()
	spec, err := faults.Parse("seed=5,latency=0.2:2ms,reject=0.25:503:1,drop=0.2,truncate=0.2")
	if err != nil {
		t.Fatal(err)
	}
	faulty := httptest.NewServer(faults.New(spec, s.Handler(), reg))
	defer faulty.Close()

	body := []byte(`{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":"min-min","ties":"det","seed":1}`)
	plain := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := plain.Post(clean.URL+"/v1/iterate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("clean request: status %d, %v", resp.StatusCode, err)
	}

	c, _ := newTestClient(Options{
		MaxRetries:       12,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       5 * time.Millisecond,
		Timeout:          2 * time.Second,
		Seed:             1,
		BreakerThreshold: 1000,
		HTTPClient:       plain,
		Metrics:          reg,
	})
	const replays = 16
	for i := 1; i <= replays; i++ {
		got, err := c.Post(context.Background(), faulty.URL+"/v1/iterate", body)
		if err != nil {
			t.Fatalf("replay %d/%d: %v", i, replays, err)
		}
		if !bytes.Equal(got.Body, want) {
			t.Fatalf("replay %d/%d: recovered body differs from the clean response", i, replays)
		}
	}
	counters := map[string]int64{}
	for _, ct := range reg.Snapshot().Counters {
		counters[ct.Name] = ct.Value
	}
	// The injector's stream and the client's retries are seeded and the
	// replays serial, so the counts are exact.
	for name, want := range map[string]int64{
		"faults.injected_total": 13,
		"faults.reject_total":   3,
		"faults.drop_total":     3,
		"faults.truncate_total": 5,
		"client.retries_total":  11,
	} {
		if counters[name] != want {
			t.Errorf("%s = %d, want %d", name, counters[name], want)
		}
	}
}

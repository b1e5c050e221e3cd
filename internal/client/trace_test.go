package client

import (
	"context"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/obs"
)

func clientSpans(col *obs.Collector) []obs.Span {
	var out []obs.Span
	for _, e := range col.Events() {
		if sp, ok := e.(obs.Span); ok {
			out = append(out, sp)
		}
	}
	return out
}

// TestClientTracePropagationAcrossRetries: one Post that fails twice and
// then succeeds produces one trace — a root, three attempt spans carrying
// the same propagated trace ID to the server, and two backoff spans — and
// each answered attempt records the server's echoed trace ID.
func TestClientTracePropagationAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var inbound []string
	var calls int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		inbound = append(inbound, r.Header.Get(traceHeader))
		calls++
		n := calls
		mu.Unlock()
		w.Header().Set(traceHeader, "srv-echo")
		if n < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-Schedd-Cache", "miss")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	col := &obs.Collector{}
	c, _ := newTestClient(Options{Seed: 1, Tracer: obs.NewTracer(col)})
	resp, err := c.Post(context.Background(), ts.URL, []byte(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts != 3 {
		t.Fatalf("attempts %d, want 3", resp.Attempts)
	}

	spans := clientSpans(col)
	sum := obs.SummarizeSpans(spans)
	if !sum.WellFormed() {
		t.Fatalf("span stream malformed: %v", sum.Malformed)
	}
	if sum.Traces != 1 || sum.Roots != 1 {
		t.Fatalf("traces/roots = %d/%d, want 1/1", sum.Traces, sum.Roots)
	}
	root := spans[0]
	if root.Name != "post" || root.Status != http.StatusOK || root.Cache != "miss" || root.Endpoint != ts.URL {
		t.Fatalf("root wrong: %+v", root)
	}
	var attempts, backoffs int
	for _, sp := range spans[1:] {
		switch sp.Name {
		case "attempt":
			attempts++
			if sp.Attempt != attempts {
				t.Fatalf("attempt span ordinal %d at position %d", sp.Attempt, attempts)
			}
			if sp.Remote != "srv-echo" {
				t.Fatalf("attempt %d remote %q, want srv-echo", sp.Attempt, sp.Remote)
			}
			want := http.StatusServiceUnavailable
			if sp.Attempt == 3 {
				want = http.StatusOK
			}
			if sp.Status != want {
				t.Fatalf("attempt %d status %d, want %d", sp.Attempt, sp.Status, want)
			}
		case "backoff":
			backoffs++
		}
	}
	if attempts != 3 || backoffs != 2 {
		t.Fatalf("attempt/backoff spans = %d/%d, want 3/2", attempts, backoffs)
	}

	// Every attempt carried the same (deterministic) client trace ID.
	if len(inbound) != 3 {
		t.Fatalf("server saw %d requests", len(inbound))
	}
	for i, id := range inbound {
		if id == "" || id != root.TraceID {
			t.Fatalf("attempt %d propagated %q, want the root trace ID %q", i+1, id, root.TraceID)
		}
	}
}

// TestClientTraceIDDeterministic: the same request through two fresh
// clients yields the same trace ID (key hash of URL+body, sequence 1).
func TestClientTraceIDDeterministic(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	run := func() string {
		col := &obs.Collector{}
		c, _ := newTestClient(Options{Seed: 1, Tracer: obs.NewTracer(col)})
		if _, err := c.Post(context.Background(), ts.URL, []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
		return clientSpans(col)[0].TraceID
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("trace IDs differ across identical runs: %s vs %s", a, b)
	}
}

// TestClientTraceBreakerFastFail: a Post refused by the open breaker still
// emits exactly one root span (status 0, no attempt children).
func TestClientTraceBreakerFastFail(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	col := &obs.Collector{}
	c, _ := newTestClient(Options{
		Seed: 1, MaxRetries: -1, BreakerThreshold: 1, Tracer: obs.NewTracer(col),
	})
	if _, err := c.Post(context.Background(), ts.URL, []byte(`{}`)); err == nil {
		t.Fatal("500 did not fail")
	}
	before := len(clientSpans(col))
	if _, err := c.Post(context.Background(), ts.URL, []byte(`{}`)); err == nil {
		t.Fatal("open breaker did not fast-fail")
	}
	spans := clientSpans(col)[before:]
	if len(spans) != 1 || spans[0].ParentID != 0 || spans[0].Status != 0 {
		t.Fatalf("fast-fail emitted %+v, want one root with status 0", spans)
	}
	if sum := obs.SummarizeSpans(clientSpans(col)); !sum.WellFormed() {
		t.Fatalf("span stream malformed: %v", sum.Malformed)
	}
}

// TestAttemptHeaders: an untraced attempt is sent with the shared
// Content-Type header and no trace header, a traced one with both, and no
// post, traced or not, writes into the shared header.
func TestAttemptHeaders(t *testing.T) {
	type seen struct{ contentType, trace string }
	var mu sync.Mutex
	var got []seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, seen{r.Header.Get("Content-Type"), r.Header.Get(traceHeader)})
		mu.Unlock()
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	plain, _ := newTestClient(Options{Seed: 1})
	traced, _ := newTestClient(Options{Seed: 1, Tracer: obs.NewTracer(&obs.Collector{})})
	for _, c := range []*Client{plain, traced, plain} {
		if _, err := c.Post(context.Background(), ts.URL, []byte(`{"x":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != 3 {
		t.Fatalf("%d requests, want 3", len(got))
	}
	for i, g := range got {
		if g.contentType != "application/json" {
			t.Errorf("request %d: Content-Type %q, want application/json", i, g.contentType)
		}
		if wantTrace := i == 1; (g.trace != "") != wantTrace {
			t.Errorf("request %d: trace header %q, want one: %v", i, g.trace, wantTrace)
		}
	}
	if len(untracedHeader) != 1 || len(untracedHeader["Content-Type"]) != 1 || untracedHeader.Get("Content-Type") != "application/json" {
		t.Fatalf("the shared untraced header was written: %v", untracedHeader)
	}
}

// TestAttemptHeadersWithCookieJar: http.Client.Do adds a jar's cookies to
// the request's own header, so a client whose http.Client has a jar must
// not send the shared header. Concurrent posts through such a client (run
// under -race) leave the shared header unchanged, each carries the jar's
// cookie, and a later post through a jarless client carries none.
func TestAttemptHeadersWithCookieJar(t *testing.T) {
	var mu sync.Mutex
	var cookies []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		cookies = append(cookies, r.Header.Get("Cookie"))
		mu.Unlock()
		http.SetCookie(w, &http.Cookie{Name: "session", Value: "abc"})
		w.Write([]byte(`{}`))
	}))
	defer ts.Close()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	withJar, _ := newTestClient(Options{Seed: 1, HTTPClient: &http.Client{Jar: jar}})
	// The first post stores the cookie; the concurrent ones all send it.
	if _, err := withJar.Post(context.Background(), ts.URL, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	const workers, posts = 4, 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*posts)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < posts; i++ {
				if _, err := withJar.Post(context.Background(), ts.URL, []byte(`{"x":1}`)); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	plain, _ := newTestClient(Options{Seed: 1})
	if _, err := plain.Post(context.Background(), ts.URL, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	if len(untracedHeader) != 1 || len(untracedHeader["Content-Type"]) != 1 || untracedHeader.Get("Content-Type") != "application/json" {
		t.Fatalf("the shared untraced header was written: %v", untracedHeader)
	}
	if len(cookies) != 2+workers*posts {
		t.Fatalf("%d requests, want %d", len(cookies), 2+workers*posts)
	}
	for i, c := range cookies[1 : len(cookies)-1] {
		if c != "session=abc" {
			t.Errorf("jar post %d: Cookie %q, want session=abc", i+1, c)
		}
	}
	if c := cookies[len(cookies)-1]; c != "" {
		t.Errorf("jarless post: Cookie %q, want none", c)
	}
}

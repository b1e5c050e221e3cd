package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/serve"
)

// heldTransport answers every request from its own bytes. While hold is
// set it answers before it reads the request body and keeps the request,
// as a transport whose body write is still racing the response may;
// otherwise it finishes the body first, as net/http's normal path does.
type heldTransport struct {
	mu   sync.Mutex
	hold bool
	held []*http.Request
}

func (rt *heldTransport) setHold(hold bool) {
	rt.mu.Lock()
	rt.hold = hold
	rt.mu.Unlock()
}

func (rt *heldTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.mu.Lock()
	hold := rt.hold
	if hold {
		rt.held = append(rt.held, req)
	}
	rt.mu.Unlock()
	if !hold {
		finishBody(req)
	}
	const answer = "{\"ok\":true}\n"
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(strings.NewReader(answer)),
		ContentLength: int64(len(answer)),
		Request:       req,
	}, nil
}

// finishBody does what net/http's write loop does with a request body:
// read it to the end, close it, then report the write finished. It
// returns the bytes read.
func finishBody(req *http.Request) []byte {
	b, _ := io.ReadAll(req.Body)
	req.Body.Close()
	if t := httptrace.ContextClientTrace(req.Context()); t != nil && t.WroteRequest != nil {
		t.WroteRequest(httptrace.WroteRequestInfo{})
	}
	return b
}

// TestForwardedBodyOutlivesTheForward holds the release rule to a
// transport that is still reading a forwarded body after the gateway has
// relayed the response and served further requests from its pooled
// buffers. A late reader must read exactly the bytes that were sent, and
// a body the transport never finishes must never be reused. Run under
// -race, a recycled buffer is also a data race between the late read and
// the next request's body read.
func TestForwardedBodyOutlivesTheForward(t *testing.T) {
	for _, late := range []bool{true, false} {
		name := "never-finished"
		if late {
			name = "late-reader"
		}
		t.Run(name, func(t *testing.T) {
			rt := &heldTransport{hold: true}
			co := testClientOptions()
			co.HTTPClient = &http.Client{Transport: rt}
			g, err := NewGateway(Options{Backends: []Backend{{Name: "b0", URL: "http://b0.invalid"}}, Client: co})
			if err != nil {
				t.Fatal(err)
			}
			post := func(body string) {
				t.Helper()
				rec := httptest.NewRecorder()
				g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/map", strings.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			// Bodies of one length, so a recycled buffer would take each.
			body := func(c byte) string { return `{"pad":"` + strings.Repeat(string(c), 512) + `"}` }
			sent := body('a')
			post(sent)
			rt.setHold(false)
			if len(rt.held) != 1 {
				t.Fatalf("%d held requests, want 1", len(rt.held))
			}
			held := rt.held[0]
			post(body('b'))

			got := make(chan []byte, 1)
			if late {
				go func() { got <- finishBody(held) }()
			}
			for c := byte('c'); c < 'k'; c++ {
				post(body(c))
			}
			if !late {
				b, _ := io.ReadAll(held.Body)
				got <- b
			}
			if b := <-got; string(b) != sent {
				t.Fatalf("held reader read %d bytes starting %.12q, want the %d bytes sent, starting %.12q", len(b), b, len(sent), sent)
			}
		})
	}
}

// TestLoanReturnedAfterPost: over net/http's transport a loan is returned
// once PostInto has read the response, and a transport still holding a
// reader keeps it out until that reader's write is reported finished.
func TestLoanReturnedAfterPost(t *testing.T) {
	_, g, _ := startCluster(t, 1, Options{})
	b := g.backends[g.router.Members()[0]]
	body := []byte(iterBody(1))
	var loan client.Loan
	for i := 0; i < 3; i++ {
		loan.Reset()
		if _, err := b.cl.PostInto(t.Context(), b.urls["/v1/iterate"], body, &loan, nil); err != nil {
			t.Fatal(err)
		}
		if !loan.Returned() {
			t.Fatalf("post %d: loan not returned after the response was read", i)
		}
	}

	rt := &heldTransport{hold: true}
	cl := client.New(client.Options{MaxRetries: -1, BreakerThreshold: -1, HTTPClient: &http.Client{Transport: rt}})
	loan.Reset()
	if _, err := cl.PostInto(t.Context(), "http://b0.invalid/v1/iterate", body, &loan, nil); err != nil {
		t.Fatal(err)
	}
	if loan.Returned() {
		t.Fatal("loan returned while the transport still holds an unread body")
	}
	finishBody(rt.held[0])
	if !loan.Returned() {
		t.Fatal("loan not returned after the held body's write finished")
	}
}

// redirectTransport answers a POST with a 303 before reading its body,
// holding the body, and a GET with 200 once its write is reported
// finished.
type redirectTransport struct{ held *http.Request }

func (rt *redirectTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp := &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody, Request: req}
	if req.Method == http.MethodPost {
		rt.held = req
		resp.StatusCode = http.StatusSeeOther
		resp.Header.Set("Location", "/done")
		return resp, nil
	}
	if t := httptrace.ContextClientTrace(req.Context()); t != nil && t.WroteRequest != nil {
		t.WroteRequest(httptrace.WroteRequestInfo{})
	}
	return resp, nil
}

// TestLoanSpoiledByRedirect: a post answered through a redirect to a
// bodyless request, or one that failed, never returns its loan — the
// redirect's own finished write must not stand in for the body's, which
// may still be in progress.
func TestLoanSpoiledByRedirect(t *testing.T) {
	rt := &redirectTransport{}
	cl := client.New(client.Options{MaxRetries: -1, BreakerThreshold: -1, HTTPClient: &http.Client{Transport: rt}})
	body := []byte(iterBody(1))
	var loan client.Loan
	if _, err := cl.PostInto(t.Context(), "http://b0.invalid/v1/iterate", body, &loan, nil); err != nil {
		t.Fatal(err)
	}
	if rt.held == nil || loan.Returned() {
		t.Error("loan returned after a redirect to GET, with the POST body still held")
	}
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	loan.Reset()
	cl = client.New(client.Options{MaxRetries: -1, BreakerThreshold: -1})
	if _, err := cl.PostInto(t.Context(), ts.URL, body, &loan, nil); err == nil {
		t.Fatal("post to a closed server succeeded")
	}
	if loan.Returned() {
		t.Error("loan returned after a failed post")
	}
}

// TestForwardPoolBound pins the forward pool's release rule: a fwdScratch
// whose request or response buffer grew past serve.MaxPooledScratch, or
// whose loan the transport still holds, never comes back from fwdPool, so
// one large request cannot pin its buffers for the life of the process
// and a body still being read is never handed to the next request.
func TestForwardPoolBound(t *testing.T) {
	// lend posts through rt under fs's loan: with hold set, the transport
	// keeps the body unread and the loan stays out.
	lend := func(fs *fwdScratch, hold bool) *fwdScratch {
		t.Helper()
		rt := &heldTransport{hold: hold}
		cl := client.New(client.Options{MaxRetries: -1, BreakerThreshold: -1, HTTPClient: &http.Client{Transport: rt}})
		fs.loan.Reset()
		if _, err := cl.PostInto(t.Context(), "http://b0.invalid/v1/iterate", []byte(iterBody(1)), &fs.loan, nil); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	for _, tc := range []struct {
		name string
		fs   *fwdScratch
	}{
		{"oversized-body", lend(&fwdScratch{body: make([]byte, 0, serve.MaxPooledScratch+1)}, false)},
		{"oversized-resp", lend(&fwdScratch{resp: make([]byte, 0, serve.MaxPooledScratch+1)}, false)},
		{"loan-out", lend(&fwdScratch{}, true)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.fs.release()
			for i := 0; i < 64; i++ {
				if getFwd() == tc.fs {
					t.Fatal("the scratch came back from the pool")
				}
			}
		})
	}
	if raceDetectorEnabled {
		return // sync.Pool drops Puts at random under -race
	}
	// The control: a scratch at the cap whose loan is returned is pooled
	// (a GC between Put and Get may empty the pool, so allow a few tries).
	for try := 0; try < 8; try++ {
		fs := lend(&fwdScratch{body: make([]byte, 0, serve.MaxPooledScratch), resp: make([]byte, 0, serve.MaxPooledScratch)}, false)
		if !fs.loan.Returned() {
			t.Fatal("loan not returned after the transport finished the body")
		}
		fs.release()
		if getFwd() == fs {
			return
		}
	}
	t.Fatal("a scratch at the cap with its loan returned was never pooled")
}

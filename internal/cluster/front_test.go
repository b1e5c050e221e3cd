package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

// panicOnFirstWrite is a ResponseWriter whose first Write panics, as a bug
// in response writing would; later writes reach the recorder, so the
// front's recovery envelope is what the test reads.
type panicOnFirstWrite struct {
	*httptest.ResponseRecorder
	wrote bool
}

func (w *panicOnFirstWrite) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		panic("response writer broke")
	}
	return w.ResponseRecorder.Write(b)
}

// TestFrontPanicGuard posts a panicking ResponseWriter to every scheduling
// handler on both fronts: the serve singleton and batch handlers and the
// gateway's. Each must answer the fixed 500 panic envelope without the
// aborted response's X-Schedd-Cache header, keep requests_total ==
// 2xx+4xx+5xx, emit exactly one root span and count one
// <front>.panics_total.
func TestFrontPanicGuard(t *testing.T) {
	batch := `{"items":[` + batchItem("iterate", iterBody(1)) + `]}`
	want := string(serve.ErrorEnvelope(serve.CodePanic, "internal panic (recovered)")) + "\n"
	for _, front := range []string{"serve", "gateway"} {
		for _, tc := range []struct{ path, body string }{{"/v1/iterate", iterBody(1)}, {"/v1/batch", batch}} {
			t.Run(front+tc.path, func(t *testing.T) {
				col := &obs.Collector{}
				var h http.Handler
				var reg *obs.Metrics
				switch front {
				case "serve":
					s := serve.NewServer(serve.Options{Workers: 1, Tracer: obs.NewTracer(col)})
					defer s.Drain(t.Context())
					h, reg = s.Handler(), s.Metrics()
				default:
					local, err := StartLocal(1, serve.Options{Workers: 1})
					if err != nil {
						t.Fatal(err)
					}
					defer local.Close()
					g, err := NewGateway(Options{Backends: local.Backends(), Client: testClientOptions(), Tracer: obs.NewTracer(col)})
					if err != nil {
						t.Fatal(err)
					}
					h, reg = g.Handler(), g.Metrics()
				}
				w := &panicOnFirstWrite{ResponseRecorder: httptest.NewRecorder()}
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
				if w.Code != http.StatusInternalServerError || w.Body.String() != want {
					t.Fatalf("got %d %q, want 500 %q", w.Code, w.Body.String(), want)
				}
				// The aborted write's cache state must not reach the envelope.
				if v := w.Result().Header.Values("X-Schedd-Cache"); len(v) != 0 {
					t.Errorf("500 panic envelope carries X-Schedd-Cache %q, want none", v)
				}
				c := map[string]int64{}
				for _, v := range reg.Snapshot().Counters {
					c[v.Name] = v.Value
				}
				p := front + "."
				if req, out := c[p+"requests_total"], c[p+"responses_2xx"]+c[p+"responses_4xx"]+c[p+"responses_5xx"]; req != 1 || out != 1 {
					t.Errorf("requests_total %d, 2xx+4xx+5xx %d; want 1 and 1", req, out)
				}
				if got := c[p+"panics_total"]; got != 1 {
					t.Errorf("%spanics_total = %d, want 1", p, got)
				}
				var spans []obs.Span
				for _, e := range col.Events() {
					if sp, ok := e.(obs.Span); ok {
						spans = append(spans, sp)
					}
				}
				if roots := obs.SummarizeSpans(spans).Roots; roots != 1 {
					t.Errorf("%d root spans, want 1", roots)
				}
			})
		}
	}
}

// TestFrontGatesMatch: the method gates and the draining refusal answer
// byte-identically on both fronts (status, Allow, Content-Type,
// Content-Length and body) and count each refused arrival once, batches
// in batch_requests_total too.
func TestFrontGatesMatch(t *testing.T) {
	s := serve.NewServer(serve.Options{Workers: 1})
	local, err := StartLocal(1, serve.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	g, err := NewGateway(Options{Backends: local.Backends(), Client: testClientOptions()})
	if err != nil {
		t.Fatal(err)
	}
	fronts := []struct {
		name string
		h    http.Handler
		f    interface {
			Drain(context.Context) error
			Metrics() *obs.Metrics
		}
	}{{"serve", s.Handler(), s}, {"gateway", g.Handler(), g}}
	answer := func(h http.Handler, method, path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(iterBody(1))))
		hd := rec.Header()
		return fmt.Sprintf("%d allow=%q type=%q len=%q %s", rec.Code, hd.Get("Allow"), hd.Get("Content-Type"), hd.Get("Content-Length"), rec.Body.String())
	}
	gates := []struct{ method, path string }{
		{http.MethodGet, "/v1/map"}, {http.MethodPut, "/v1/iterate"}, {http.MethodGet, "/v1/batch"},
		{http.MethodPost, "/healthz"}, {http.MethodPost, "/metricz"}, {http.MethodPost, "/statusz"},
	}
	check := func(method, path string) {
		t.Helper()
		want := answer(fronts[0].h, method, path)
		if got := answer(fronts[1].h, method, path); got != want {
			t.Errorf("%s %s: gateway answered\n%s\nserve answered\n%s", method, path, got, want)
		}
	}
	for _, gt := range gates {
		check(gt.method, gt.path)
	}
	for _, fr := range fronts {
		if err := fr.f.Drain(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{"/v1/map", "/v1/iterate", "/v1/batch"} {
		check(http.MethodPost, path)
	}
	for _, fr := range fronts {
		c := map[string]int64{}
		for _, v := range fr.f.Metrics().Snapshot().Counters {
			c[v.Name] = v.Value
		}
		p := fr.name + "."
		// 3 scheduling 405s and 3 draining 503s; the introspection 405s
		// are not arrivals.
		if c[p+"requests_total"] != 6 || c[p+"responses_4xx"] != 3 || c[p+"responses_5xx"] != 3 || c[p+"batch_requests_total"] != 2 {
			t.Errorf("%s counters: requests %d, 4xx %d, 5xx %d, batches %d; want 6, 3, 3, 2", fr.name,
				c[p+"requests_total"], c[p+"responses_4xx"], c[p+"responses_5xx"], c[p+"batch_requests_total"])
		}
	}
}

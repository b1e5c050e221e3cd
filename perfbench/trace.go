package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// Spans are recorded from the benchmark's own files only, at the public
// seams it controls. A request's spans share its id (the id of its root,
// the client span). Spans stay in memory until the run ends.

// span is one timed call into a layer. Times are nanoseconds since the
// recorder's epoch (monotonic clock).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
	Trace  string  `json:"serve_trace,omitempty"` // handler spans: the server's own trace id
	Cands  []int64 `json:"-"`                     // store.get: requests that sent the key
}

// serveSpan is a span from the server's own serve.Options.Tracer, joined
// to the handler span that carried it by trace id.
type serveSpan struct {
	trace      string
	name       string
	start, dur int64
}

type recorder struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	serve []serveSpan
	keys  map[string][]int64 // canonical key → requests in flight that carry it
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), keys: map[string][]int64{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }
func (r *recorder) id() int64  { return r.ids.Add(1) }
func (r *recorder) add(s span) { r.mu.Lock(); r.spans = append(r.spans, s); r.mu.Unlock() }

// reset drops what was recorded so far (the warm-up's spans).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans, r.serve = nil, nil
	r.mu.Unlock()
}

// Observe is the server Tracer's sink. Only the stages that are not the
// handler's own work are kept: the engine (compute), and waiting.
func (r *recorder) Observe(e obs.Event) {
	sp, ok := e.(obs.Span)
	if !ok {
		return
	}
	switch sp.Name {
	case "compute", "queue_wait", "coalesce_wait":
		r.mu.Lock()
		r.serve = append(r.serve, serveSpan{trace: sp.TraceID, name: sp.Name, start: sp.StartNS, dur: sp.DurationNS})
		r.mu.Unlock()
	}
}

// claim registers req as a sender of keys, for attributing store.get spans
// (the store sees only keys); release undoes it.
func (r *recorder) claim(req int64, keys []string) {
	r.mu.Lock()
	for _, k := range keys {
		r.keys[k] = append(r.keys[k], req)
	}
	r.mu.Unlock()
}

func (r *recorder) release(req int64, keys []string) {
	r.mu.Lock()
	for _, k := range keys {
		ids := r.keys[k]
		for i, id := range ids {
			if id == req {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(r.keys, k)
		} else {
			r.keys[k] = ids
		}
	}
	r.mu.Unlock()
}

func (r *recorder) senders(key string) []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int64(nil), r.keys[key]...)
}

// spanCtx carries a request id and the current span across a call.
type spanCtx struct{ req, parent int64 }

type ctxKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, ctxKey{}, sc)
}

func spanFrom(ctx context.Context) spanCtx {
	sc, _ := ctx.Value(ctxKey{}).(spanCtx)
	return sc
}

// The request id and parent span cross the loopback hop in these headers.
// The program ignores them.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// spanTransport records one span per HTTP exchange, from the round trip's
// start to the close of the response body (the client reads the whole
// body before closing it).
type spanTransport struct {
	base http.RoundTripper
	rec  *recorder
	name string
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sc := spanFrom(req.Context())
	s := span{ID: t.rec.id(), Parent: sc.parent, Req: sc.req, Name: t.name, Start: t.rec.now()}
	req = req.Clone(req.Context())
	req.Header.Set(hdrReq, strconv.FormatInt(sc.req, 10))
	req.Header.Set(hdrParent, strconv.FormatInt(s.ID, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = t.rec.now()
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, rec: t.rec, s: s}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.rec.now()
		b.rec.add(b.s)
	})
	return err
}

// handler records one span per request around h. The response is buffered
// and written only after the span ends, so the caller's exchange span
// always contains it; the copy is part of the tracing overhead.
func (r *recorder) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reqID, _ := strconv.ParseInt(req.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(req.Header.Get(hdrParent), 10, 64)
		s := span{ID: r.id(), Parent: parent, Req: reqID, Name: name, Start: r.now()}
		bw := &bufferedWriter{w: w}
		h.ServeHTTP(bw, req.WithContext(withSpan(req.Context(), spanCtx{req: reqID, parent: s.ID})))
		s.End = r.now()
		s.Trace = w.Header().Get(serve.TraceHeader)
		r.add(s)
		if bw.code != 0 {
			w.WriteHeader(bw.code)
		}
		w.Write(bw.buf)
	})
}

type bufferedWriter struct {
	w    http.ResponseWriter
	code int
	buf  []byte
}

func (b *bufferedWriter) Header() http.Header { return b.w.Header() }
func (b *bufferedWriter) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}
func (b *bufferedWriter) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// timedStore is the disk tier as the server sees it: the real store behind
// a timing wrapper. It forwards TierHealth, so the server keeps its health
// gating exactly as with the bare store.
type timedStore struct {
	st  *store.Store
	rec *recorder
}

func (t *timedStore) Get(key string) ([]byte, bool, error) {
	s := span{ID: t.rec.id(), Name: "store.get", Start: t.rec.now()}
	body, ok, err := t.st.Get(key)
	s.End = t.rec.now()
	s.Cands = t.rec.senders(key)
	t.rec.add(s)
	return body, ok, err
}

// Put runs on the server's write-behind goroutine, off the request path,
// so its span is a root of its own.
func (t *timedStore) Put(key string, body []byte) error {
	s := span{ID: t.rec.id(), Name: "store.put", Start: t.rec.now()}
	err := t.st.Put(key, body)
	s.End = t.rec.now()
	t.rec.add(s)
	return err
}

func (t *timedStore) ConsultRead() bool   { return t.st.ConsultRead() }
func (t *timedStore) ConsultWrite() bool  { return t.st.ConsultWrite() }
func (t *timedStore) HealthState() string { return t.st.HealthState() }

// traceReport is what the span analysis yields.
type traceReport struct {
	self       map[string][]float64 // rung name → self time per span, µs
	dur        map[string][]float64 // rung name → duration per span, µs
	checked    int                  // child spans checked against their parent
	violations int                  // children outside their parent, or orphaned
	spans      []span
}

// analyze places the server's own spans under the handler spans that
// carried them, attributes store reads to the request whose handler
// contains them, checks that every child lies inside its parent, and
// computes each span's self time: its duration minus the part its
// children cover.
func (r *recorder) analyze() traceReport {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	serveSpans := append([]serveSpan(nil), r.serve...)
	r.mu.Unlock()

	byTrace := map[string]int{}
	handlersByReq := map[int64][]int{}
	for i, s := range spans {
		if s.Name == "handler" {
			if s.Trace != "" {
				byTrace[s.Trace] = i
			}
			handlersByReq[s.Req] = append(handlersByReq[s.Req], i)
		}
	}
	rep := traceReport{self: map[string][]float64{}, dur: map[string][]float64{}}
	for _, ss := range serveSpans {
		i, ok := byTrace[ss.trace]
		if !ok {
			rep.violations++
			continue
		}
		h := spans[i]
		start := h.Start + ss.start
		spans = append(spans, span{ID: r.id(), Parent: h.ID, Req: h.Req, Name: ss.name, Start: start, End: start + ss.dur})
	}
	for i := range spans {
		s := &spans[i]
		if s.Name != "store.get" || len(s.Cands) == 0 {
			continue
		}
		for _, req := range s.Cands {
			for _, hi := range handlersByReq[req] {
				h := spans[hi]
				if h.Start <= s.Start && s.End <= h.End {
					s.Parent, s.Req = h.ID, h.Req
				}
			}
		}
		if s.Parent == 0 {
			rep.violations++
		}
	}
	byID := make(map[int64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		rep.checked++
		pi, ok := byID[s.Parent]
		if !ok {
			rep.violations++
			continue
		}
		p := spans[pi]
		if s.Start < p.Start || s.End > p.End || s.Req != p.Req {
			rep.violations++
			continue
		}
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	for _, s := range spans {
		d := s.End - s.Start
		self := d - covered(children[s.ID])
		rep.dur[s.Name] = append(rep.dur[s.Name], float64(d)/1e3)
		rep.self[s.Name] = append(rep.self[s.Name], float64(self)/1e3)
	}
	rep.spans = spans
	return rep
}

// covered is the length of the union of intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// maxSpansWritten caps the spans file; the analysis above uses every span.
const maxSpansWritten = 20000

// writeSpans writes up to maxSpansWritten spans as JSON lines.
func writeSpans(path string, spans []span) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for _, s := range spans {
		if n == maxSpansWritten {
			break
		}
		if err := enc.Encode(s); err != nil {
			f.Close()
			return n, err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

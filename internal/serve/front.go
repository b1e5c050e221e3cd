package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Front is the HTTP lifecycle every scheduling front shares: Server and
// cluster.Gateway each embed one, and keep only their own stages between
// its gate and its epilogue. It owns
//   - the drain gate: the draining flag, the in-flight WaitGroup and the
//     mutex that orders its Add against Drain's Wait;
//   - the arrival and outcome metrics: <name>.requests_total,
//     responses_2xx/4xx/5xx, panics_total, inflight and latency_ms;
//   - trace start, joining the caller's trace from TraceHeader;
//   - the handler-level panic guard;
//   - the POST and GET method gates and the draining refusal;
//   - the request body reader, under MaxBodyBytes;
//   - the JSON body and error writers.
//
// Every scheduling arrival passes the gate and the epilogue (Arrival.Done)
// exactly once, which is what makes requests_total == 2xx+4xx+5xx and one
// root span per request hold.
type Front struct {
	name     string // trace name and metric prefix: "serve" or "gateway"
	reg      *obs.Metrics
	tracer   *obs.Tracer
	observer obs.Observer

	mu        sync.Mutex // guards draining and inflight Add vs Wait
	draining  bool
	inflight  sync.WaitGroup
	inflightN atomic.Int64

	mRequests, mPanics *obs.Counter
	// mErrors counts 5xx responses other than 503; nil on a front that
	// keeps no such counter.
	mErrors *obs.Counter
	// Per-outcome response counters: every arrival resolves to exactly
	// one of these.
	m2xx, m4xx, m5xx *obs.Counter
	gInflight        *obs.Gauge
	hLatency         *obs.Histogram
}

// NewFront builds a front whose traces and metrics are named name, and
// whose request bodies may hold up to MaxBodyBytes. A nil reg creates a
// private registry; a nil tracer or observer is off.
func NewFront(name string, reg *obs.Metrics, tracer *obs.Tracer, observer obs.Observer) *Front {
	if reg == nil {
		reg = obs.NewMetrics()
	}
	return &Front{
		name:      name,
		reg:       reg,
		tracer:    tracer,
		observer:  observer,
		mRequests: reg.Counter(name + ".requests_total"),
		mPanics:   reg.Counter(name + ".panics_total"),
		m2xx:      reg.Counter(name + ".responses_2xx"),
		m4xx:      reg.Counter(name + ".responses_4xx"),
		m5xx:      reg.Counter(name + ".responses_5xx"),
		gInflight: reg.Gauge(name + ".inflight"),
		// Latency is wall-clock and observational only.
		hLatency: reg.Histogram(name+".latency_ms", 0, 1000, 50),
	}
}

// Metrics returns the front's metrics registry.
func (f *Front) Metrics() *obs.Metrics { return f.reg }

// Draining reports whether Drain has begun.
func (f *Front) Draining() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.draining
}

// Drain refuses new scheduling requests with 503 from now on and waits for
// the in-flight ones to finish. It returns ctx's error if the context
// expires while requests are still in flight. Drain is idempotent and safe
// to call concurrently. A caller serving the front through an http.Server
// calls http.Server.Shutdown first, to stop accepting connections, then
// Drain (internal/daemon's Serve does).
func (f *Front) Drain(ctx context.Context) error {
	f.mu.Lock()
	f.draining = true
	f.mu.Unlock()
	done := make(chan struct{})
	go func() {
		f.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// begin registers an in-flight request unless the front is draining. The
// mutex orders inflight.Add against Drain's Wait.
func (f *Front) begin() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.draining {
		return false
	}
	f.inflight.Add(1)
	f.gInflight.Set(float64(f.inflightN.Add(1)))
	return true
}

func (f *Front) end() {
	f.gInflight.Set(float64(f.inflightN.Add(-1)))
	f.inflight.Done()
}

// Arrival is one scheduling request's pass through a Front, from Handle's
// prologue to its epilogue, Done.
type Arrival struct {
	f     *Front
	ep    string
	start time.Time // observational only: latency metrics and events
	tr    *obs.Trace
}

// Handle wraps a scheduling handler for endpoint ep in the front: the
// arrival prologue (requests_total, and arrivals when non-nil; the trace,
// joined to the caller's), the panic guard, the POST gate and the draining
// gate. serve runs only for admitted requests, inside the drain gate, and
// must end every path in exactly one Done. Refusals at the gates run the
// epilogue themselves.
func (f *Front) Handle(ep string, arrivals *obs.Counter, serve func(http.ResponseWriter, *http.Request, Arrival)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// One trace per arrival (nil when tracing is off: every trace and
		// span method is then a free no-op).
		a := Arrival{f: f, ep: ep, start: time.Now(), tr: f.tracer.StartTrace(f.name)}
		if a.tr != nil {
			a.tr.SetEndpoint(ep)
			if remote := r.Header.Get(TraceHeader); remote != "" {
				a.tr.SetRemote(remote)
			}
		}
		defer a.recover(w)
		// Every arrival counts, whatever its outcome: rejected methods,
		// draining refusals and shed requests all show up in requests_total.
		f.mRequests.Inc()
		if arrivals != nil {
			arrivals.Inc()
		}
		if r.Method != http.MethodPost {
			a.fail(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "use POST", allow: http.MethodPost})
			return
		}
		if !f.begin() {
			a.fail(w, &apiError{status: http.StatusServiceUnavailable, code: CodeDraining, msg: "draining"})
			return
		}
		defer f.end()
		serve(w, r, a)
	}
}

// recover is the handler-level panic guard. The compute path has its own
// (Server.computeJob), so anything caught here is a bug in parsing, routing
// or response writing. The connection-killing sentinel is re-raised for
// net/http; everything else becomes a best-effort structured 500, so the
// access log and the conservation counters still see the request.
func (a *Arrival) recover(w http.ResponseWriter) {
	if v := recover(); v != nil {
		if v == http.ErrAbortHandler {
			panic(v)
		}
		a.fail(w, a.f.recoverPanic(a.ep, v))
	}
}

// recoverPanic converts a recovered panic into the front's structured 500.
// The client-facing message is fixed: panic values and stacks are
// nondeterministic, and response bodies must stay byte-identical across
// runs. So the diagnostic detail goes to the observational path only:
// <name>.panics_total and a panic_recovered event.
func (f *Front) recoverPanic(ep string, v any) *apiError {
	f.mPanics.Inc()
	if f.observer != nil {
		f.observer.Observe(obs.PanicRecovered{
			Endpoint: ep,
			Value:    fmt.Sprint(v),
			Stack:    string(debug.Stack()),
		})
	}
	return &apiError{status: http.StatusInternalServerError, code: CodePanic, msg: "internal panic (recovered)"}
}

// GetOnly is the introspection endpoints' method gate: a non-GET request
// gets the 405 envelope and false.
func (f *Front) GetOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	f.writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "use GET", allow: http.MethodGet}, nil)
	return false
}

// WriteError writes an untraced error envelope, for introspection
// endpoints.
func (f *Front) WriteError(w http.ResponseWriter, status int, code, msg string) {
	f.writeError(w, &apiError{status: status, code: code, msg: msg}, nil)
}

// Trace returns the arrival's trace; nil when tracing is off.
func (a *Arrival) Trace() *obs.Trace { return a.tr }

// ReadBody reads the request body into buf's storage under the
// MaxBodyBytes limit, growing it as needed, and returns the bytes read. A
// declared Content-Length within the limit is read exactly, into storage
// grown to hold it, and a body shorter than it is a 400; an unframed body,
// or a declared length over the limit, is read until it ends or passes the
// limit. On failure ReadBody tags and ends sp, the caller's open decode
// span, writes the 413 or 400 envelope and runs the epilogue, and ok is
// false. Either way body holds buf's storage as grown, for the caller to
// recycle.
func (a *Arrival) ReadBody(w http.ResponseWriter, r *http.Request, buf []byte, sp *obs.SpanHandle) (body []byte, ok bool) {
	// rd is read in this function only, so it stays on the stack.
	rd := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	n := r.ContentLength
	exact := n > 0 && n <= MaxBodyBytes
	body = buf[:0]
	if exact {
		// Grown as append grows, so that a pooled buffer meeting bodies
		// a little larger each time is not reallocated for each.
		body = slices.Grow(body, int(n))
	}
	var err error
	for !exact || int64(len(body)) < n {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		end := cap(body)
		if exact {
			end = int(n)
		}
		var m int
		m, err = rd.Read(body[len(body):end])
		body = body[:len(body)+m]
		if err == io.EOF {
			err = nil
			if exact && int64(len(body)) < n {
				err = io.ErrUnexpectedEOF
			}
			break
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		return body, true
	}
	aerr := badRequest("reading body: %v", err)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		aerr = &apiError{
			status: http.StatusRequestEntityTooLarge,
			code:   CodePayloadTooLarge,
			msg:    fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
		}
	}
	sp.SetErr(aerr.code)
	sp.End()
	a.fail(w, aerr)
	return body, false
}

// WriteBody writes a scheduling response body under the front's headers;
// see writeBody.
func (a *Arrival) WriteBody(w http.ResponseWriter, status int, body []byte, cacheState string) {
	a.f.writeBody(w, status, body, nil, cacheState, a.tr)
}

// WriteError writes the front's error envelope for a documented code.
func (a *Arrival) WriteError(w http.ResponseWriter, status int, code, msg string) {
	a.f.writeError(w, &apiError{status: status, code: code, msg: msg}, a.tr)
}

// fail writes aerr's envelope and runs the epilogue with no request
// summary.
func (a *Arrival) fail(w http.ResponseWriter, aerr *apiError) {
	a.f.writeError(w, aerr, a.tr)
	a.Done(aerr.status, "", obs.RequestDone{})
}

// Done is the single request epilogue. It runs exactly once per scheduling
// arrival, which is what makes both the counter conservation invariant
// (requests_total == 2xx+4xx+5xx) and the one-root-span-per-request
// invariant hold: outcome accounting, the latency histogram, the
// request_done access-log event, then the trace finish. ev carries the
// front's own request summary (request shape, batch items); Done fills in
// the rest. All wall-clock readings stay on this observational path.
func (a *Arrival) Done(status int, cacheState string, ev obs.RequestDone) {
	f := a.f
	switch {
	case status < 300:
		f.m2xx.Inc()
	case status < 500:
		f.m4xx.Inc()
	default:
		f.m5xx.Inc()
	}
	elapsed := time.Since(a.start)
	f.hLatency.Observe(float64(elapsed) / float64(time.Millisecond))
	if f.observer != nil {
		ev.Endpoint = a.ep
		ev.Status = status
		ev.Cache = cacheState
		ev.TraceID = a.tr.ID()
		ev.ElapsedNS = elapsed.Nanoseconds()
		f.observer.Observe(ev)
	}
	a.tr.Finish(status, cacheState)
}

// TraceHeader is the trace propagation header: clients send their trace ID
// in it, and the server echoes the request's own trace ID back in it. IDs
// travel only in headers and logs — never in response bodies, which must
// stay byte-identical however the bytes were obtained.
const TraceHeader = "X-Schedd-Trace"

// Preallocated header value slices: Header().Set allocates a fresh
// []string per call, which is most of what a cache hit would spend. The
// keys are already in canonical MIME form, and the shared slices are never
// mutated downstream (net/http and httptest read them only).
var (
	headerJSON       = []string{"application/json"}
	headerCacheState = map[string][]string{
		"hit":       {"hit"},
		"miss":      {"miss"},
		"coalesced": {"coalesced"},
		"disk":      {"disk"},
	}
)

// contentLength is the Content-Length header value framing body. Every
// buffered response carries one, so net/http sends bodies of any size
// unchunked and a client can read each into one exact-size buffer.
func contentLength(body []byte) []string {
	return []string{strconv.Itoa(len(body))}
}

// writeBody writes a scheduling response. cacheState ("hit", "disk",
// "miss" or "coalesced") goes in the X-Schedd-Cache header: headers may
// differ by how the bytes were obtained, bodies never do. A batch envelope
// passes "" and gets no such header; its items carry their own states.
// clen is body's Content-Length value when the caller already holds it,
// else nil. The write itself is the trace's "write" stage.
func (f *Front) writeBody(w http.ResponseWriter, status int, body []byte, clen []string, cacheState string, tr *obs.Trace) {
	sp := tr.Start("write")
	h := w.Header()
	h["Content-Type"] = headerJSON
	if clen == nil {
		clen = contentLength(body)
	}
	h["Content-Length"] = clen
	if cacheState != "" {
		v, ok := headerCacheState[cacheState]
		if !ok {
			v = []string{cacheState}
		}
		h["X-Schedd-Cache"] = v
	}
	if id := tr.ID(); id != "" {
		h.Set(TraceHeader, id)
	}
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	w.Write(body)
	sp.End()
}

// writeError renders the uniform error envelope. Every non-2xx body a
// front writes itself goes through here, so the shape — and the stable
// code — is the same whether the failure was a bad method, a validation
// error, shed load or a recovered panic. tr may be nil (introspection
// endpoints); when live, rejected requests get their trace ID echoed
// exactly like successes.
func (f *Front) writeError(w http.ResponseWriter, aerr *apiError, tr *obs.Trace) {
	sp := tr.Start("write")
	// A body write that panicked may have set its cache state already; the
	// envelope replaces that response.
	delete(w.Header(), "X-Schedd-Cache")
	if f.mErrors != nil && aerr.status >= http.StatusInternalServerError && aerr.status != http.StatusServiceUnavailable {
		f.mErrors.Inc()
	}
	if aerr.allow != "" {
		w.Header().Set("Allow", aerr.allow)
	}
	if aerr.retryAfterSec > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(aerr.retryAfterSec))
	}
	// The envelope bytes are shared with batch item results (errorEnvelope)
	// so the two can never drift.
	body := append(errorEnvelope(aerr), '\n')
	h := w.Header()
	h["Content-Type"] = headerJSON
	h["Content-Length"] = contentLength(body)
	if id := tr.ID(); id != "" {
		h.Set(TraceHeader, id)
	}
	w.WriteHeader(aerr.status)
	w.Write(body)
	sp.End()
}

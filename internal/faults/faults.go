// Package faults is a deterministic fault-injection harness for the serving
// path: an http.Handler middleware that wraps the real scheduling handler
// and injects configured rates of added latency, 503/429 rejections (with
// Retry-After), dropped connections and truncated response bodies. It
// exists so the resilience layer (internal/client, schedload's retry loop,
// the chaos scenarios) can be exercised against realistic failure modes —
// stragglers and transient faults are the norm, not the exception, in
// heterogeneous systems — without ever compromising the repository's
// determinism guarantee.
//
// Two rules keep injection safe:
//
//   - Computed bodies are never altered, only withheld. A truncation fault
//     writes a strict prefix of the real response and severs the
//     connection; a client can observe an error or the exact bytes the
//     inner handler produced, never different bytes.
//   - Every random decision flows from the explicit seed in the Spec
//     through internal/rng (never math/rand). The decision stream is
//     deterministic in arrival order; with serial requests (the chaos
//     scenarios, tests) the entire fault sequence is replayable.
//
// Wall-clock appears only as injected latency, which delays a response but
// never changes its content.
package faults

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Spec configures the middleware. Build one with Parse (the -fault-inject
// flag grammar) or construct it directly; the zero value injects nothing.
type Spec struct {
	// Seed drives every injection decision through internal/rng.
	Seed uint64
	// LatencyP is the probability of adding Latency before the inner
	// handler runs. Latency composes with the other faults.
	LatencyP float64
	Latency  time.Duration
	// RejectP is the probability of rejecting the request outright with
	// RejectStatus (503 or 429) and, when RetryAfterSec > 0, a Retry-After
	// header. The inner handler never runs.
	RejectP       float64
	RejectStatus  int
	RetryAfterSec int
	// DropP is the probability of severing the connection before any
	// response bytes are written: the client sees a transport error.
	DropP float64
	// TruncateP is the probability of writing only half of the real
	// response body and then severing the connection: the client sees an
	// unexpected EOF, never altered bytes.
	TruncateP float64
}

// String renders the spec in the Parse grammar.
func (s Spec) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	if s.LatencyP > 0 {
		parts = append(parts, fmt.Sprintf("latency=%g:%s", s.LatencyP, s.Latency))
	}
	if s.RejectP > 0 {
		p := fmt.Sprintf("reject=%g:%d", s.RejectP, s.RejectStatus)
		if s.RetryAfterSec > 0 {
			p += fmt.Sprintf(":%d", s.RetryAfterSec)
		}
		parts = append(parts, p)
	}
	if s.DropP > 0 {
		parts = append(parts, fmt.Sprintf("drop=%g", s.DropP))
	}
	if s.TruncateP > 0 {
		parts = append(parts, fmt.Sprintf("truncate=%g", s.TruncateP))
	}
	return strings.Join(parts, ",")
}

// Parse reads the -fault-inject grammar:
//
//	spec  := field ("," field)*
//	field := "seed=N"
//	       | "latency=P:DUR"        e.g. latency=0.3:5ms
//	       | "reject=P:CODE[:SECS]" e.g. reject=0.2:503:1 (CODE 503 or 429)
//	       | "drop=P"
//	       | "truncate=P"
//
// Probabilities are in [0, 1]; NaN is not. Unknown fields, malformed
// values and out-of-range probabilities are errors: a typo'd fault spec
// must never silently inject nothing.
func Parse(spec string) (Spec, error) {
	var s Spec
	if strings.TrimSpace(spec) == "" {
		return s, fmt.Errorf("faults: empty spec")
	}
	prob := func(field, v string) (float64, error) {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || !(p >= 0 && p <= 1) { // NaN fails both comparisons
			return 0, fmt.Errorf("faults: %s probability %q not in [0, 1]", field, v)
		}
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return s, fmt.Errorf("faults: field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			s.Seed, err = strconv.ParseUint(val, 10, 64)
			if err != nil {
				return s, fmt.Errorf("faults: seed %q: %v", val, err)
			}
		case "latency":
			p, dur, ok := strings.Cut(val, ":")
			if !ok {
				return s, fmt.Errorf("faults: latency %q is not P:DUR", val)
			}
			if s.LatencyP, err = prob("latency", p); err != nil {
				return s, err
			}
			if s.Latency, err = time.ParseDuration(dur); err != nil || s.Latency < 0 {
				return s, fmt.Errorf("faults: latency duration %q invalid", dur)
			}
		case "reject":
			parts := strings.Split(val, ":")
			if len(parts) != 2 && len(parts) != 3 {
				return s, fmt.Errorf("faults: reject %q is not P:CODE[:SECS]", val)
			}
			if s.RejectP, err = prob("reject", parts[0]); err != nil {
				return s, err
			}
			code, err := strconv.Atoi(parts[1])
			if err != nil || (code != http.StatusServiceUnavailable && code != http.StatusTooManyRequests) {
				return s, fmt.Errorf("faults: reject status %q must be 503 or 429", parts[1])
			}
			s.RejectStatus = code
			if len(parts) == 3 {
				if s.RetryAfterSec, err = strconv.Atoi(parts[2]); err != nil || s.RetryAfterSec < 0 {
					return s, fmt.Errorf("faults: reject retry-after %q invalid", parts[2])
				}
			}
		case "drop":
			if s.DropP, err = prob("drop", val); err != nil {
				return s, err
			}
		case "truncate":
			if s.TruncateP, err = prob("truncate", val); err != nil {
				return s, err
			}
		default:
			return s, fmt.Errorf("faults: unknown field %q", key)
		}
	}
	return s, nil
}

// Injector is the middleware: it wraps an inner handler and injects faults
// per the Spec. Safe for concurrent use; the seeded decision stream is
// consumed in request-arrival order.
type Injector struct {
	spec  Spec
	inner http.Handler

	mu  sync.Mutex
	src *rng.Source

	// sleep is injectable for tests; production uses time.Sleep. Injected
	// latency is wall-clock but only delays responses, never alters them.
	sleep func(time.Duration)

	mInjected *obs.Counter
	mLatency  *obs.Counter
	mReject   *obs.Counter
	mDrop     *obs.Counter
	mTruncate *obs.Counter
}

// New wraps inner with fault injection per spec. Injection counters
// (faults.injected_total, faults.latency_total, faults.reject_total,
// faults.drop_total, faults.truncate_total) land in reg; pass nil for a
// private registry.
func New(spec Spec, inner http.Handler, reg *obs.Metrics) *Injector {
	if reg == nil {
		reg = obs.NewMetrics()
	}
	return &Injector{
		spec:      spec,
		inner:     inner,
		src:       rng.New(spec.Seed),
		sleep:     time.Sleep,
		mInjected: reg.Counter("faults.injected_total"),
		mLatency:  reg.Counter("faults.latency_total"),
		mReject:   reg.Counter("faults.reject_total"),
		mDrop:     reg.Counter("faults.drop_total"),
		mTruncate: reg.Counter("faults.truncate_total"),
	}
}

// decision is one request's drawn fault plan.
type decision struct {
	latency  bool
	reject   bool
	drop     bool
	truncate bool
}

// draw consumes the seeded stream for one request: one Float64 per
// configured fault, in a fixed field order, so the stream is identical for
// a given spec regardless of which faults fire. The terminal faults are
// exclusive, first match wins: reject, then drop, then truncate.
func (f *Injector) draw() decision {
	f.mu.Lock()
	defer f.mu.Unlock()
	var d decision
	if f.spec.LatencyP > 0 {
		d.latency = f.src.Float64() < f.spec.LatencyP
	}
	if f.spec.RejectP > 0 {
		d.reject = f.src.Float64() < f.spec.RejectP
	}
	if f.spec.DropP > 0 {
		d.drop = f.src.Float64() < f.spec.DropP
	}
	if f.spec.TruncateP > 0 {
		d.truncate = f.src.Float64() < f.spec.TruncateP
	}
	if d.reject {
		d.drop, d.truncate = false, false
	} else if d.drop {
		d.truncate = false
	}
	return d
}

// abort severs the connection without completing the response: hijack and
// close when the server supports it, otherwise panic with ErrAbortHandler
// (which net/http turns into an aborted response, never a valid one).
func abort(w http.ResponseWriter) {
	if hj, ok := w.(http.Hijacker); ok {
		if conn, _, err := hj.Hijack(); err == nil {
			conn.Close()
			return
		}
	}
	panic(http.ErrAbortHandler)
}

// ServeHTTP implements http.Handler.
func (f *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	d := f.draw()
	if d.latency {
		f.mLatency.Inc()
		f.sleep(f.spec.Latency)
	}
	switch {
	case d.reject:
		f.mInjected.Inc()
		f.mReject.Inc()
		if f.spec.RetryAfterSec > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(f.spec.RetryAfterSec))
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(f.spec.RejectStatus)
		// The serve error envelope with the one code the injector owns, so
		// chaos-harness clients can tell an injected rejection from a real
		// service error without parsing free-form text.
		fmt.Fprintf(w, "{\"error\":{\"code\":\"injected_fault\",\"message\":\"injected fault: status %d\"}}\n", f.spec.RejectStatus)
		return
	case d.drop:
		f.mInjected.Inc()
		f.mDrop.Inc()
		abort(w)
		return
	case d.truncate:
		f.mInjected.Inc()
		f.mTruncate.Inc()
		f.truncated(w, r)
		return
	}
	if d.latency {
		f.mInjected.Inc()
	}
	f.inner.ServeHTTP(w, r)
}

// truncated runs the inner handler against a buffer, relays the status and
// headers plus the real Content-Length, writes only half of the body's
// bytes — a strict prefix of the true response, never altered ones — and
// severs the connection so the client observes an unexpected EOF.
func (f *Injector) truncated(w http.ResponseWriter, r *http.Request) {
	rec := newRecorder()
	f.inner.ServeHTTP(rec, r)
	body := rec.body.Bytes()
	for k, vs := range rec.header {
		w.Header()[k] = vs
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.status)
	w.Write(body[:len(body)/2])
	if fl, ok := w.(http.Flusher); ok {
		fl.Flush()
	}
	abort(w)
}

// recorder buffers the inner handler's response so truncation can withhold
// a suffix of the real bytes. (httptest.ResponseRecorder is off-limits
// outside tests; this is the minimal production-side equivalent.)
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder {
	return &recorder{header: make(http.Header), status: http.StatusOK}
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) { r.status = status }

func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

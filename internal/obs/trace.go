package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Deterministic request tracing.
//
// A Tracer hands out one Trace per request; a Trace is a root span plus
// nested stage spans (decode, validate, queue_wait, cache_lookup,
// disk_lookup when a disk result tier is configured,
// coalesce_wait, compute, marshal, write — plus batch_split and batch_merge
// on batch requests — on the serving side; attempt and backoff on the
// client side). The repository's two observability rules
// hold here exactly as they do for events and metrics:
//
//   - Identity is deterministic. A trace ID is derived from the canonical
//     request key (FNV-1a) and an atomic per-tracer sequence number — never
//     from wall-clock or math/rand — so the same request stream replayed
//     serially produces the same IDs. Span IDs are small per-trace ordinals.
//   - Durations are observational only. Spans carry wall-clock start
//     offsets and durations for latency attribution, but no timing value
//     ever feeds back into a scheduling decision or alters response bytes;
//     trace IDs travel in headers and logs, never in response bodies.
//
// A nil *Tracer is "off" and costs nothing: StartTrace returns a nil
// *Trace, and every method on a nil *Trace or nil *SpanHandle is a no-op
// that allocates nothing and reads no clock (guarded by
// TestNilTracerCostsNothing).

// Span is one timed stage of a traced request, emitted as an Event (kind
// "span") through the Tracer's sink when its Trace finishes. Attribute
// fields are fixed and typed — not a map — so JSONL renderings are
// deterministic in field order. SpanID 1 is always the root; stage spans
// carry ParentID 1.
type Span struct {
	TraceID  string `json:"trace_id"`
	SpanID   int    `json:"span_id"`
	ParentID int    `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Endpoint is the request path (root spans).
	Endpoint string `json:"endpoint,omitempty"`
	// Status is the HTTP status the stage resolved to (root spans, client
	// attempt spans).
	Status int `json:"status,omitempty"`
	// Cache is the cache disposition ("hit", "miss", "coalesced").
	Cache string `json:"cache,omitempty"`
	// Attempt is the 1-based attempt ordinal on client attempt/backoff spans.
	Attempt int `json:"attempt,omitempty"`
	// Remote is the peer's trace ID: on a server root span, the inbound
	// X-Schedd-Trace request header; on a client attempt span, the server's
	// echoed response header. It is the join key between a client's retry
	// spans and the server traces they caused.
	Remote string `json:"remote,omitempty"`
	// Err classifies a failed stage (e.g. "shed", "transport", "timeout").
	Err string `json:"err,omitempty"`
	// Unfinished marks a span force-closed at trace finish: its stage never
	// ended on its own (panic, abandonment after a deadline).
	Unfinished bool `json:"unfinished,omitempty"`
	// StartNS is the span's start as a wall-clock offset from the root
	// span's start; DurationNS its wall-clock length. Observational only.
	StartNS    int64 `json:"start_ns"`
	DurationNS int64 `json:"duration_ns"`
}

// Kind implements Event.
func (Span) Kind() string { return "span" }

// Tracer mints Traces. A nil Tracer is the disabled state; see the package
// note above. Tracer is safe for concurrent use.
type Tracer struct {
	seq  atomic.Uint64
	sink Observer
}

// NewTracer returns a Tracer emitting finished spans to sink, or nil (the
// disabled tracer) when sink is nil.
func NewTracer(sink Observer) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// StartTrace opens a new trace whose root span has the given name. On a
// nil Tracer it returns nil without reading the clock.
func (t *Tracer) StartTrace(name string) *Trace {
	if t == nil {
		return nil
	}
	tr := &Trace{
		tracer: t,
		seq:    t.seq.Add(1),
		start:  time.Now(), // observational: span offsets and durations only
		nextID: 2,
	}
	tr.root = &SpanHandle{tr: tr, span: Span{SpanID: 1, Name: name}, start: tr.start}
	return tr
}

// Trace is one request's span tree under construction. All methods are
// nil-safe no-ops on a nil receiver and safe for concurrent use (the
// serving path hands stage spans to worker goroutines).
type Trace struct {
	tracer *Tracer

	mu       sync.Mutex
	seq      uint64
	keyHash  uint64
	id       string // memoized ID rendering
	start    time.Time
	nextID   int
	root     *SpanHandle
	open     []*SpanHandle // non-root spans not yet ended
	done     []Span        // non-root spans, in end order
	finished bool
}

// SetKey folds the request's canonical key into the trace identity. Call
// it as soon as the key is known (after parsing); requests that fail
// before a key exists keep hash 0.
func (tr *Trace) SetKey(key string) {
	if tr == nil {
		return
	}
	tr.SetKeyHash(KeyHash(key))
}

// SetKeyHash is SetKey for callers that already hold KeyHash(key) — for
// example a gateway that routed a repeat body from a memo without
// re-deriving its key: same identity as SetKey(key).
func (tr *Trace) SetKeyHash(h uint64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.keyHash = h
	tr.id = ""
	tr.mu.Unlock()
}

// SetKeyBytes is SetKey for callers holding the key as bytes (for example
// a batch body sitting in pooled scratch): same identity, no string
// materialization.
func (tr *Trace) SetKeyBytes(key []byte) {
	if tr == nil {
		return
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	tr.SetKeyHash(h)
}

// ID renders the trace ID: 16 hex digits of the canonical-key hash, a
// dash, 8 hex digits of the tracer sequence. Deterministic in the request
// stream; "" on a nil Trace.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.id == "" {
		tr.id = fmt.Sprintf("%016x-%08x", tr.keyHash, tr.seq)
	}
	return tr.id
}

// SetEndpoint annotates the root span with the request path.
func (tr *Trace) SetEndpoint(ep string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.root.span.Endpoint = ep
	tr.mu.Unlock()
}

// SetRemote annotates the root span with the peer's trace ID (the inbound
// propagation header).
func (tr *Trace) SetRemote(id string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.root.span.Remote = id
	tr.mu.Unlock()
}

// Start opens a stage span as a child of the root. The returned handle's
// End records the duration; a handle never ended by Finish time is
// force-closed and marked Unfinished.
func (tr *Trace) Start(name string) *SpanHandle {
	if tr == nil {
		return nil
	}
	now := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.finished {
		return nil
	}
	sp := &SpanHandle{
		tr:    tr,
		start: now,
		span: Span{
			SpanID:   tr.nextID,
			ParentID: 1,
			Name:     name,
			StartNS:  now.Sub(tr.start).Nanoseconds(),
		},
	}
	tr.nextID++
	tr.open = append(tr.open, sp)
	return sp
}

// Finish closes the trace: the root span takes the final status and cache
// disposition, any still-open stage spans are force-closed as Unfinished,
// and every span is emitted to the tracer's sink — root first, then stages
// in end order. Spans ended after Finish are dropped (an abandoned job's
// worker may outlive its request), so a finished trace emits exactly once.
func (tr *Trace) Finish(status int, cache string) {
	if tr == nil {
		return
	}
	now := time.Now()
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	for _, sp := range tr.open {
		sp.span.Unfinished = true
		sp.span.DurationNS = now.Sub(sp.start).Nanoseconds()
		tr.done = append(tr.done, sp.span)
	}
	tr.open = nil
	root := tr.root.span
	root.Status = status
	root.Cache = cache
	root.DurationNS = now.Sub(tr.start).Nanoseconds()
	if tr.id == "" {
		tr.id = fmt.Sprintf("%016x-%08x", tr.keyHash, tr.seq)
	}
	id := tr.id
	spans := append([]Span{root}, tr.done...)
	tr.done = nil
	tr.mu.Unlock()
	// Emit outside the trace lock: sinks are concurrency-safe, and a slow
	// writer must not hold up a worker ending spans for another request.
	for i := range spans {
		spans[i].TraceID = id
		tr.tracer.sink.Observe(spans[i])
	}
}

// SpanHandle is an in-flight stage span. Setters annotate it before End;
// all methods are nil-safe no-ops.
type SpanHandle struct {
	tr    *Trace
	start time.Time
	span  Span
	ended bool
}

// SetStatus annotates the span with an HTTP status.
func (sp *SpanHandle) SetStatus(status int) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.span.Status = status
	sp.tr.mu.Unlock()
}

// SetCache annotates the span with a cache disposition.
func (sp *SpanHandle) SetCache(state string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.span.Cache = state
	sp.tr.mu.Unlock()
}

// SetAttempt annotates the span with a 1-based attempt ordinal.
func (sp *SpanHandle) SetAttempt(n int) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.span.Attempt = n
	sp.tr.mu.Unlock()
}

// SetRemote annotates the span with the peer's trace ID.
func (sp *SpanHandle) SetRemote(id string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.span.Remote = id
	sp.tr.mu.Unlock()
}

// SetErr annotates the span with a failure class.
func (sp *SpanHandle) SetErr(class string) {
	if sp == nil {
		return
	}
	sp.tr.mu.Lock()
	sp.span.Err = class
	sp.tr.mu.Unlock()
}

// End closes the span, recording its wall-clock duration. Ending twice, or
// after the trace finished, is a safe no-op.
func (sp *SpanHandle) End() {
	if sp == nil {
		return
	}
	now := time.Now()
	tr := sp.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if sp.ended || tr.finished {
		return
	}
	sp.ended = true
	sp.span.DurationNS = now.Sub(sp.start).Nanoseconds()
	for i, o := range tr.open {
		if o == sp {
			tr.open = append(tr.open[:i], tr.open[i+1:]...)
			break
		}
	}
	tr.done = append(tr.done, sp.span)
}

// KeyHash is the 64-bit FNV-1a hash of a canonical key: the hash half of
// a trace ID, and the hash internal/cluster routes by. Inlined so key
// hashing allocates nothing (hash/fnv's New64a returns a heap object).
func KeyHash(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// spanMetricsObserver folds finished spans into per-stage wall-clock
// histograms.
type spanMetricsObserver struct {
	mu     sync.Mutex
	m      *Metrics
	prefix string
	hists  map[string]*Histogram
}

// NewSpanMetricsObserver returns an Observer that maintains one histogram
// "<prefix>.stage_<name>_ms" (0–1000 ms, 50 bins) per span name seen, so a
// registry snapshot — and /statusz — can attribute latency per stage. The
// durations are wall-clock and observational only.
func NewSpanMetricsObserver(m *Metrics, prefix string) Observer {
	return &spanMetricsObserver{m: m, prefix: prefix, hists: map[string]*Histogram{}}
}

// Observe implements Observer.
func (o *spanMetricsObserver) Observe(e Event) {
	sp, ok := e.(Span)
	if !ok {
		return
	}
	o.mu.Lock()
	h, ok := o.hists[sp.Name]
	if !ok {
		h = o.m.Histogram(o.prefix+".stage_"+sp.Name+"_ms", 0, 1000, 50)
		o.hists[sp.Name] = h
	}
	o.mu.Unlock()
	h.Observe(float64(sp.DurationNS) / 1e6)
}

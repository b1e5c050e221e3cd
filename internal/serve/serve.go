// Package serve is the online scheduling service core: the library behind
// cmd/schedd. It turns the repository's batch-mode machinery (heuristics,
// the iterative engine) into a long-running HTTP service with a bounded
// request queue, a fixed worker pool, an LRU result cache and graceful
// drain — the serving regime the batch-mode heuristics of Maheswaran et al.
// were designed for.
//
// Determinism holds end to end: every request carries an explicit seed, and
// identical requests (same matrix, heuristic, tie policy, seed) produce
// byte-identical response bodies whether computed by a worker or served
// from the cache. Wall-clock appears only in observability fields (latency
// metrics, request_done events); a deadline may cancel a request but can
// never alter the content of a produced mapping or trace.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Defaults for the zero Options value.
const (
	DefaultQueueDepth     = 64
	DefaultCacheEntries   = 256
	DefaultMaxBodyBytes   = 1 << 20
	DefaultRequestTimeout = 5 * time.Second
	// DefaultMaxCells caps tasks×machines per request (admission guard):
	// 512×512 — far above every workload in the paper, far below what would
	// let one request monopolize a worker.
	DefaultMaxCells = 1 << 18
	// DefaultMaxEstimatedBytes caps the per-request memory estimate
	// (instance copy plus response, see estimateBytes).
	DefaultMaxEstimatedBytes = 64 << 20
	// DefaultMaxBatchItems caps the item count of one POST /v1/batch body.
	DefaultMaxBatchItems = 256
)

// Options configures a Server. The zero value is a working configuration.
type Options struct {
	// QueueDepth bounds the number of requests waiting for a worker;
	// requests beyond it are shed with 429. 0 means DefaultQueueDepth.
	QueueDepth int
	// Workers sizes the worker pool. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// CacheEntries sizes the LRU result cache, keyed by (endpoint, ETC
	// matrix, heuristic, tie policy, seed, seeded, ready times). 0 means
	// DefaultCacheEntries; negative disables caching.
	CacheEntries int
	// MaxBodyBytes bounds request bodies. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// RequestTimeout caps each request's deadline; a request's timeout_ms
	// may lower it but never raise it. 0 means DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxCells is the admission guard on tasks×machines per request;
	// requests over it are refused with 413 before any per-cell work.
	// 0 means DefaultMaxCells; negative disables the guard.
	MaxCells int
	// MaxEstimatedBytes is the admission guard on the per-request memory
	// estimate (instance copy plus response size). 0 means
	// DefaultMaxEstimatedBytes; negative disables the guard.
	MaxEstimatedBytes int64
	// MaxBatchItems caps the number of items in one POST /v1/batch body;
	// batches over it are refused with 413 before any per-item work. 0 means
	// DefaultMaxBatchItems.
	MaxBatchItems int
	// PanicTrigger, when non-nil, runs in the worker just before each
	// compute with the request's seed. It exists so selfchecks, chaos
	// scenarios and tests can exercise the panic-isolation path with a
	// deliberate panic on a sentinel seed; it must never be set in
	// production.
	PanicTrigger func(seed uint64)
	// Metrics receives serve.* counters, gauges and latency histograms.
	// When nil the server creates its own registry (exposed at /metricz
	// and by Metrics()).
	Metrics *obs.Metrics
	// Observer, when non-nil, receives one obs.RequestDone event per
	// scheduling request — the service's access log. It must be safe for
	// concurrent use (the obs sinks are).
	Observer obs.Observer
	// Tracer, when non-nil, opens one deterministic trace per scheduling
	// request: a root span plus stage spans (decode, validate, cache_lookup,
	// disk_lookup when a store is configured, queue_wait, coalesce_wait,
	// compute, marshal, write; batch requests add
	// batch_split and batch_merge) emitted to the tracer's sink at request
	// end. The trace ID is echoed in the
	// X-Schedd-Trace response header — never in the body, so cache hits stay
	// byte-identical. A nil Tracer costs nothing (no span objects, no clock
	// reads).
	Tracer *obs.Tracer
	// Store, when non-nil, is the crash-safe disk result tier behind the
	// LRU. An LRU miss consults it under a disk_lookup stage span; a disk
	// hit is served with X-Schedd-Cache: disk (byte-identical body) and
	// promoted into the LRU. Computed bodies are written behind the request
	// path by a dedicated writer goroutine; Drain flushes pending writes,
	// after which the caller owns closing the store.
	Store ResultStore
}

// Server is the scheduling service: an http.Handler plus the worker pool
// and cache behind it. Create with NewServer; stop with Drain.
type Server struct {
	opts  Options
	reg   *obs.Metrics
	cache *lru
	queue chan *job
	lim   limits

	workers sync.WaitGroup

	mu       sync.Mutex // guards draining and inflight Add vs Wait
	draining bool
	inflight sync.WaitGroup
	stopOnce sync.Once

	// Disk tier (nil/unused when Options.Store is nil): reads happen inline
	// in resolve; writes flow worker → storeQ → storeWriter goroutine.
	// tierHealth is non-nil when the store also satisfies TierHealth, in
	// which case both paths pass its consult gates (graceful degradation).
	store      ResultStore
	tierHealth TierHealth
	storeQ     chan storeWrite
	storeDone  chan struct{}
	storeStop  sync.Once

	queued    atomic.Int64
	inflightN atomic.Int64

	// flights coalesces concurrent identical cache misses (singleflight):
	// the first request for a key computes, followers wait for its bytes.
	flightMu sync.Mutex
	flights  map[string]*flight

	mRequests   *obs.Counter
	mHits       *obs.Counter
	mMisses     *obs.Counter
	mCoalesced  *obs.Counter
	mShed       *obs.Counter
	mTimeouts   *obs.Counter
	mErrors     *obs.Counter
	mPanics     *obs.Counter
	mBatches    *obs.Counter
	mBatchItems *obs.Counter
	// Disk-tier traffic. Registered only when a store is configured, so
	// storeless deployments' /metricz output is unchanged.
	mDiskHits   *obs.Counter
	mDiskMisses *obs.Counter
	mDiskWrites *obs.Counter
	mDiskDrops  *obs.Counter
	mDiskErrors *obs.Counter
	// Degradation observability (health-aware stores only): consults the
	// gate declined, and the current health state as a gauge.
	mDiskSkipped *obs.Counter
	gDiskHealth  *obs.Gauge
	// Per-outcome response counters. Every scheduling arrival resolves to
	// exactly one of these, so requests_total == 2xx+4xx+5xx always — the
	// conservation invariant the chaos harness checks after every run.
	m2xx, m4xx, m5xx *obs.Counter

	gQueue    *obs.Gauge
	gInflight *obs.Gauge
	hLatency  *obs.Histogram

	// testHookDequeued, when non-nil, runs in the worker goroutine after a
	// job is dequeued and before it is computed. Tests use it to hold jobs
	// in flight deterministically; it must never be set in production.
	testHookDequeued func(*job)

	mux *http.ServeMux
}

// job is one scheduling request handed to the worker pool.
type job struct {
	ctx  context.Context
	p    *parsedRequest
	done chan jobResult // buffered: workers never block on abandoned requests
	// tr is the request's trace (nil when tracing is off); qspan its
	// queue_wait stage, started at enqueue and ended by the worker at
	// dequeue. If the handler abandons the job, its trace finishes first and
	// the worker's span calls become no-ops.
	tr    *obs.Trace
	qspan *obs.SpanHandle
}

type jobResult struct {
	body []byte
	err  *apiError
}

// flight is one in-flight computation for a cache key. The leader fills
// body/err and closes done; followers wait on done (or their own deadline)
// and reuse the leader's bytes — one computation, byte-identical responses.
type flight struct {
	done chan struct{}
	body []byte
	err  *apiError
}

// NewServer builds a server and starts its worker pool.
func NewServer(opts Options) *Server {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewMetrics()
	}
	var lim limits
	switch {
	case opts.MaxCells == 0:
		lim.maxCells = DefaultMaxCells
	case opts.MaxCells > 0:
		lim.maxCells = opts.MaxCells
	}
	switch {
	case opts.MaxEstimatedBytes == 0:
		lim.maxEstBytes = DefaultMaxEstimatedBytes
	case opts.MaxEstimatedBytes > 0:
		lim.maxEstBytes = opts.MaxEstimatedBytes
	}
	s := &Server{
		opts:    opts,
		reg:     reg,
		queue:   make(chan *job, opts.QueueDepth),
		flights: make(map[string]*flight),
		lim:     lim,

		mRequests:   reg.Counter("serve.requests_total"),
		mHits:       reg.Counter("serve.cache_hits"),
		mMisses:     reg.Counter("serve.cache_misses"),
		mCoalesced:  reg.Counter("serve.coalesced_total"),
		mShed:       reg.Counter("serve.shed_total"),
		mTimeouts:   reg.Counter("serve.timeouts_total"),
		mErrors:     reg.Counter("serve.errors_total"),
		mPanics:     reg.Counter("serve.panics_total"),
		mBatches:    reg.Counter("serve.batch_requests_total"),
		mBatchItems: reg.Counter("serve.batch_items_total"),
		m2xx:        reg.Counter("serve.responses_2xx"),
		m4xx:        reg.Counter("serve.responses_4xx"),
		m5xx:        reg.Counter("serve.responses_5xx"),
		gQueue:      reg.Gauge("serve.queue_depth"),
		gInflight:   reg.Gauge("serve.inflight"),
		// Latency is wall-clock and observational only.
		hLatency: reg.Histogram("serve.latency_ms", 0, 1000, 50),
	}
	if opts.CacheEntries >= 0 {
		n := opts.CacheEntries
		if n == 0 {
			n = DefaultCacheEntries
		}
		s.cache = newLRU(n)
	}
	if opts.Store != nil {
		s.store = opts.Store
		s.storeQ = make(chan storeWrite, storeQueueDepth)
		s.storeDone = make(chan struct{})
		s.mDiskHits = reg.Counter("serve.disk_hits")
		s.mDiskMisses = reg.Counter("serve.disk_misses")
		s.mDiskWrites = reg.Counter("serve.disk_writes")
		s.mDiskDrops = reg.Counter("serve.disk_write_drops")
		s.mDiskErrors = reg.Counter("serve.disk_errors")
		if th, ok := opts.Store.(TierHealth); ok {
			s.tierHealth = th
			s.mDiskSkipped = reg.Counter("serve.disk_skipped")
			s.gDiskHealth = reg.Gauge("serve.disk_health")
			s.noteDiskHealth()
		}
		go s.storeWriter()
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc(string(endpointMap), s.handleSchedule(endpointMap))
	s.mux.HandleFunc(string(endpointIterate), s.handleSchedule(endpointIterate))
	s.mux.HandleFunc(string(endpointBatch), s.handleBatch)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metricz", s.handleMetricz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.workers.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler: POST /v1/map, POST
// /v1/iterate, POST /v1/batch, GET /healthz, GET /metricz, GET /statusz.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Metrics { return s.reg }

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully stops the server: new scheduling requests are refused
// with 503 immediately, in-flight requests run to completion, then the
// worker pool exits. It returns ctx's error if the context expires while
// requests are still in flight. Drain is idempotent and safe to call
// concurrently. Callers embedding the handler in an http.Server should
// call http.Server.Shutdown first (to stop accepting connections), then
// Drain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.stopOnce.Do(func() { close(s.queue) })
	s.workers.Wait()
	// Workers (the only storeQ senders) are gone; flush the write-behind
	// queue so every computed body is durable before the caller closes the
	// store.
	s.drainStore()
	return nil
}

// beginRequest registers an in-flight request unless the server is
// draining. The mutex orders inflight.Add against Drain's Wait.
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.inflight.Add(1)
	s.gInflight.Set(float64(s.inflightN.Add(1)))
	return true
}

func (s *Server) endRequest() {
	s.gInflight.Set(float64(s.inflightN.Add(-1)))
	s.inflight.Done()
}

// worker computes queued jobs until the queue is closed. Jobs whose context
// is already done are skipped: the produced response could no longer reach
// the client, and skipping keeps a timed-out backlog from stalling drain.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.gQueue.Set(float64(s.queued.Add(-1)))
		if s.testHookDequeued != nil {
			s.testHookDequeued(j)
		}
		j.qspan.End()
		if j.ctx.Err() != nil {
			j.done <- jobResult{err: timeoutError()}
			continue
		}
		body, err := s.computeJob(j)
		if err == nil {
			if s.cache != nil {
				s.cache.add(j.p.key, body, metaOf(j.p))
			}
			s.storeEnqueue(j.p.key, body)
		}
		j.done <- jobResult{body: body, err: err}
	}
}

// computeJob runs one job's compute under per-request panic isolation: a
// panic anywhere below the heuristics or the engine is recovered here, so
// the worker goroutine survives and the waiting handler receives a
// structured 500. The recovered result is never cached — only successful,
// deterministic bodies enter the cache.
func (s *Server) computeJob(j *job) (body []byte, aerr *apiError) {
	defer func() {
		if v := recover(); v != nil {
			// The compute (or marshal) span is still open; the handler's
			// Finish force-closes it as Unfinished, which is how a panicking
			// request still yields a complete span tree.
			body, aerr = nil, s.recoverPanic(j.p.endpoint, v)
		}
	}()
	sp := j.tr.Start("compute")
	if s.opts.PanicTrigger != nil {
		// Inside the compute span, where a real heuristic or engine panic
		// would land.
		s.opts.PanicTrigger(j.p.seed)
	}
	v, aerr := j.p.run()
	if aerr != nil {
		sp.SetErr(aerr.code)
		sp.End()
		return nil, aerr
	}
	sp.End()
	sp = j.tr.Start("marshal")
	body, aerr = marshalResponse(v)
	sp.End()
	return body, aerr
}

// recoverPanic converts a recovered request-path panic into the service's
// structured 500. The client-facing message is fixed — panic values and
// stacks are nondeterministic, and response bodies must stay byte-identical
// across runs — so the diagnostic detail goes to the observational path
// only: the serve.panics_total counter and a panic_recovered event.
func (s *Server) recoverPanic(ep endpoint, v any) *apiError {
	s.mPanics.Inc()
	if s.opts.Observer != nil {
		s.opts.Observer.Observe(obs.PanicRecovered{
			Endpoint: string(ep),
			Value:    fmt.Sprint(v),
			Stack:    string(debug.Stack()),
		})
	}
	return &apiError{status: http.StatusInternalServerError, code: CodePanic, msg: "internal panic (recovered)"}
}

// timeoutError is the canonical 504: one constructor so every deadline path
// produces the identical envelope.
func timeoutError() *apiError {
	return &apiError{status: http.StatusGatewayTimeout, code: CodeDeadlineExceeded, msg: "deadline exceeded"}
}

// joinFlight registers interest in the computation for key. The first
// caller becomes the leader (computes and resolves the flight); later
// callers are followers and wait on the returned flight's done channel.
func (s *Server) joinFlight(key string) (*flight, bool) {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if f, ok := s.flights[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	return f, true
}

// resolveFlight publishes the leader's result to followers and retires the
// flight. Later identical requests start fresh (and normally hit the cache
// the worker just populated).
func (s *Server) resolveFlight(key string, f *flight, body []byte, err *apiError) {
	f.body, f.err = body, err
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	close(f.done)
}

// handleSchedule serves one scheduling endpoint: validate, consult the
// cache, join the key's in-flight computation, or queue for a worker under
// the request deadline.
func (s *Server) handleSchedule(ep endpoint) http.HandlerFunc {
	rawHead := rawHeadSingleton(ep)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now() // observational only: latency metrics and events
		// One trace per arrival (nil when tracing is off — every tr and span
		// method below is then a free no-op). The inbound propagation header
		// joins this trace to the caller's.
		tr := s.opts.Tracer.StartTrace("serve")
		if tr != nil {
			tr.SetEndpoint(string(ep))
			if remote := r.Header.Get(TraceHeader); remote != "" {
				tr.SetRemote(remote)
			}
		}
		// Handler-level panic isolation: the worker path has its own recover
		// (computeJob), so anything caught here is a bug in parsing or
		// response writing. The connection-killing sentinel is re-raised for
		// net/http; everything else becomes a best-effort structured 500 so
		// the access log and conservation counters still see the request.
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				aerr := s.recoverPanic(ep, v)
				s.writeError(w, aerr, tr)
				s.observe(ep, aerr.status, "", nil, start, tr)
			}
		}()
		// Every arrival counts, whatever its outcome: rejected methods,
		// draining refusals and shed requests all show up in requests_total.
		s.mRequests.Inc()
		if r.Method != http.MethodPost {
			s.writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "use POST", allow: http.MethodPost}, tr)
			s.observe(ep, http.StatusMethodNotAllowed, "", nil, start, tr)
			return
		}
		if !s.beginRequest() {
			s.writeError(w, &apiError{status: http.StatusServiceUnavailable, code: CodeDraining, msg: "draining"}, tr)
			s.observe(ep, http.StatusServiceUnavailable, "", nil, start, tr)
			return
		}
		defer s.endRequest()
		sc := getScratch()
		defer putScratch(sc)
		sp := tr.Start("decode")
		body, aerr := s.readBody(w, r, sc)
		if aerr != nil {
			sp.SetErr(aerr.code)
			sp.End()
			s.writeError(w, aerr, tr)
			s.observe(ep, aerr.status, "", nil, start, tr)
			return
		}
		// Raw fast path: the exact bytes of this body were seen at least
		// twice before and parsed to a cached canonical key, so the response
		// is served with one map lookup — no JSON decode, no validation
		// walk, no canonical key build. The entry's stored request summary
		// keeps the access-log record complete.
		raw := rawAlias{head: rawHead, body: body}
		if s.cache != nil {
			if c, ok := sc.getRaw(s.cache, raw); ok {
				sp.End()
				// Same canonical key, same deterministic trace identity as
				// the parse path would derive.
				tr.SetKey(c.key)
				csp := tr.Start("cache_lookup")
				csp.SetCache("hit")
				csp.End()
				s.mHits.Inc()
				s.writeBody(w, c.body, c.clen, "hit", tr)
				s.observeInfo(ep, http.StatusOK, "hit", reqInfo{
					heuristic: c.meta.heuristic, seed: c.meta.seed,
					tasks: c.meta.tasks, machines: c.meta.machines, has: true,
				}, start, tr)
				return
			}
		}
		d, aerr := decodeBody(body, false, sc)
		if aerr != nil {
			sp.SetErr(aerr.code)
			sp.End()
			s.writeError(w, aerr, tr)
			s.observe(ep, aerr.status, "", nil, start, tr)
			return
		}
		sp.End()
		sp = tr.Start("validate")
		p, aerr := d.admit(ep, s.lim)
		if aerr != nil {
			sp.SetErr(aerr.code)
			sp.End()
			s.writeError(w, aerr, tr)
			s.observe(ep, aerr.status, "", nil, start, tr)
			return
		}
		sp.End()
		// The canonical key exists now; fold it into the trace identity so
		// the ID is deterministic in the request content.
		tr.SetKey(p.key)
		// A canonical hit admits this body's exact bytes as a raw alias, so
		// the next repeat takes the fast path (lru.lookup).
		body2, state, aerr := s.resolve(r.Context(), p, raw, tr)
		if aerr != nil {
			s.writeError(w, aerr, tr)
			s.observe(ep, aerr.status, state, p, start, tr)
			return
		}
		s.writeBody(w, body2, nil, state, tr)
		s.observe(ep, http.StatusOK, state, p, start, tr)
	}
}

// resolve obtains the response bytes for a parsed request: canonical cache
// lookup (which admits raw as an alias on a hit, see lru.lookup), disk-tier
// consult (when a store is configured), joining an
// identical in-flight computation, or queueing for a worker under the
// request deadline. It returns the body and cache state
// ("hit", "disk", "miss" or "coalesced") on success; on failure the state is what
// the access-log record should carry ("coalesced" when a coalesced leader
// failed, else empty). All cache/flight/queue counters — including
// timeouts — are accounted here, exactly as the inline paths did.
func (s *Server) resolve(rctx context.Context, p *parsedRequest, raw rawAlias, tr *obs.Trace) ([]byte, string, *apiError) {
	if s.cache != nil {
		sp := tr.Start("cache_lookup")
		c, ok := s.cache.lookup(p.key, raw)
		if ok {
			sp.SetCache("hit")
		} else {
			sp.SetCache("miss")
		}
		sp.End()
		if ok {
			s.mHits.Inc()
			return c.body, "hit", nil
		}
	}
	if s.store != nil && s.consultDisk() {
		// Disk tier: a read-through consult between the LRU and compute. An
		// I/O error is a miss with a counter — the store must never be able
		// to fail a request that compute can still answer. While the store
		// reports itself offline, consultDisk skips this block entirely (no
		// disk_lookup span) except for request-counted recovery probes.
		sp := tr.Start("disk_lookup")
		body, ok, err := s.store.Get(p.key)
		s.noteDiskHealth()
		switch {
		case err != nil:
			sp.SetErr(CodeInternal)
			sp.End()
			s.mDiskErrors.Inc()
		case ok:
			sp.SetCache("disk")
			sp.End()
			s.mDiskHits.Inc()
			// Promote so repeats are memory hits; the body came back from
			// the verbatim store, so the cached bytes stay byte-identical.
			if s.cache != nil {
				s.cache.add(p.key, body, metaOf(p))
			}
			return body, "disk", nil
		default:
			sp.SetCache("miss")
			sp.End()
			s.mDiskMisses.Inc()
		}
	}
	timeout := s.opts.RequestTimeout
	if t := time.Duration(p.timeoutMS) * time.Millisecond; t > 0 && t < timeout {
		timeout = t
	}
	ctx, cancel := context.WithTimeout(rctx, timeout)
	defer cancel()

	f, leader := s.joinFlight(p.key)
	if !leader {
		// A concurrent identical request is already computing: wait for
		// its bytes instead of queueing a duplicate job.
		s.mCoalesced.Inc()
		sp := tr.Start("coalesce_wait")
		select {
		case <-f.done:
			sp.End()
			if f.err != nil {
				if f.err.status == http.StatusGatewayTimeout {
					s.mTimeouts.Inc()
				}
				return nil, "coalesced", f.err
			}
			return f.body, "coalesced", nil
		case <-ctx.Done():
			sp.SetErr(CodeDeadlineExceeded)
			sp.End()
			s.mTimeouts.Inc()
			return nil, "", timeoutError()
		}
	}
	s.mMisses.Inc()
	j := &job{ctx: ctx, p: p, done: make(chan jobResult, 1), tr: tr}
	j.qspan = tr.Start("queue_wait")
	s.gQueue.Set(float64(s.queued.Add(1)))
	select {
	case s.queue <- j:
	default:
		s.gQueue.Set(float64(s.queued.Add(-1)))
		s.mShed.Inc()
		j.qspan.SetErr(CodeOverloaded)
		j.qspan.End()
		aerr := &apiError{status: http.StatusTooManyRequests, code: CodeOverloaded, msg: "queue full", retryAfterSec: 1}
		s.resolveFlight(p.key, f, nil, aerr)
		return nil, "", aerr
	}
	select {
	case res := <-j.done:
		s.resolveFlight(p.key, f, res.body, res.err)
		if res.err != nil {
			if res.err.status == http.StatusGatewayTimeout {
				s.mTimeouts.Inc()
			}
			return nil, "", res.err
		}
		return res.body, "miss", nil
	case <-ctx.Done():
		// The job stays queued; a worker will discard it. Its response
		// was never produced, so determinism is untouched. Followers see
		// the same timeout (their own deadlines are no longer than the
		// work they were waiting on). Any span the job still holds open
		// (queue_wait, or compute in a worker that outlives us) is
		// force-closed as Unfinished by the caller's Finish.
		s.mTimeouts.Inc()
		aerr := timeoutError()
		s.resolveFlight(p.key, f, nil, aerr)
		return nil, "", aerr
	}
}

// metaOf summarizes a parsed request for storage beside its cached body.
func metaOf(p *parsedRequest) entryMeta {
	return entryMeta{
		heuristic: p.heuristic,
		seed:      p.seed,
		tasks:     p.tasks,
		machines:  p.machines,
	}
}

// reqScratch is the pooled per-request scratch: the body read buffer, the
// raw-key build buffer, and the decoder's cell and ready-time buffers.
// Nothing that outlives the handler may alias any of them — the canonical
// key is written into its own buffer, the cache copies alias keys, and
// cached bodies are cache-owned — so returning the scratch to the pool at
// handler exit is safe (the -race aliasing hammer in serve_race_test.go
// exercises exactly this).
type reqScratch struct {
	buf   []byte
	key   []byte
	cells []float64
	ready []float64
}

// maxPooledScratch bounds the buffers the scratch pool keeps: one large
// body, or a large batch envelope assembled in key, must not stay pinned by
// the pool after its request is done.
const maxPooledScratch = 256 << 10

var scratchPool = sync.Pool{New: func() any { return &reqScratch{buf: make([]byte, 0, 4096)} }}

func getScratch() *reqScratch { return scratchPool.Get().(*reqScratch) }

func putScratch(sc *reqScratch) {
	if cap(sc.buf) <= maxPooledScratch && cap(sc.key) <= maxPooledScratch &&
		8*(cap(sc.cells)+cap(sc.ready)) <= maxPooledScratch {
		scratchPool.Put(sc)
	}
}

// getRaw probes c's raw-alias index for r's exact bytes, building the
// alias key in the scratch's key buffer (the map probe on string(key) does
// not allocate). A body the index never admits, over maxRawAliasBytes, is
// a certain miss: it costs no copy and no hash.
func (sc *reqScratch) getRaw(c *lru, r rawAlias) (cached, bool) {
	if !r.indexable() {
		return cached{}, false
	}
	sc.key = append(append(sc.key[:0], r.head...), r.body...)
	return c.getRaw(sc.key)
}

// readBody reads the request body into the pooled scratch buffer under the
// MaxBodyBytes limit — io.ReadAll without the per-request allocation. The
// returned slice aliases the scratch and is valid only inside the handler.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, sc *reqScratch) ([]byte, *apiError) {
	rd := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	buf := sc.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			sc.buf = buf
			return buf, nil
		}
		if err != nil {
			sc.buf = buf
			aerr := badRequest("reading body: %v", err)
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				aerr = &apiError{
					status: http.StatusRequestEntityTooLarge,
					code:   CodePayloadTooLarge,
					msg:    fmt.Sprintf("request body exceeds %d bytes", mbe.Limit),
				}
			}
			return nil, aerr
		}
	}
}

// healthState is the /healthz body.
type healthState struct {
	Status    string `json:"status"` // "ok" or "draining"
	Workers   int    `json:"workers"`
	QueueCap  int    `json:"queue_capacity"`
	Queued    int64  `json:"queued"`
	Inflight  int64  `json:"inflight"`
	CacheSize int    `json:"cache_entries"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "use GET", allow: http.MethodGet}, nil)
		return
	}
	h := healthState{
		Status:   "ok",
		Workers:  s.opts.Workers,
		QueueCap: s.opts.QueueDepth,
		Queued:   s.queued.Load(),
		Inflight: s.inflightN.Load(),
	}
	if s.cache != nil {
		h.CacheSize = s.cache.len()
	}
	status := http.StatusOK
	if s.Draining() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(h)
	w.Write(append(body, '\n'))
}

// handleMetricz renders the metrics registry: deterministic JSON snapshot
// by default, the obs text rendering with ?format=text.
func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "use GET", allow: http.MethodGet}, nil)
		return
	}
	snap := s.reg.Snapshot()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, snap.Text())
		return
	}
	body, err := snap.JSON()
	if err != nil {
		s.writeError(w, internalError("%v", err), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// statusStage is one per-stage latency row in a /statusz body, derived from
// the "<anything>.stage_<name>_ms" histograms a span-metrics observer
// maintains. All values are wall-clock, observational only.
type statusStage struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
}

// statusState is the /statusz body: an at-a-glance operational summary —
// request/outcome counters, cache effectiveness, queue and inflight gauges
// (plus any other gauges in the registry, e.g. a client breaker state when
// the process shares one registry), request latency, and the per-stage
// latency breakdown when tracing feeds a span-metrics observer.
type statusState struct {
	Status        string             `json:"status"` // "ok" or "draining"
	RequestsTotal int64              `json:"requests_total"`
	Responses2xx  int64              `json:"responses_2xx"`
	Responses4xx  int64              `json:"responses_4xx"`
	Responses5xx  int64              `json:"responses_5xx"`
	CacheHits     int64              `json:"cache_hits"`
	CacheMisses   int64              `json:"cache_misses"`
	Coalesced     int64              `json:"coalesced"`
	CacheHitRatio float64            `json:"cache_hit_ratio"`
	Gauges        map[string]float64 `json:"gauges"`
	Disk          *statusDisk        `json:"disk,omitempty"`
	LatencyMS     statusStage        `json:"latency_ms"`
	Stages        []statusStage      `json:"stages,omitempty"`
}

// statusDisk is the /statusz disk-tier section, present only when a store
// is configured. Health is present only when the store reports it (the
// TierHealth contract); the counters make a silently shrinking disk tier —
// dropped writes, skipped consults, quarantine-style errors — diagnosable
// at a glance.
type statusDisk struct {
	Health     string `json:"health,omitempty"`
	Hits       int64  `json:"hits"`
	Misses     int64  `json:"misses"`
	Writes     int64  `json:"writes"`
	WriteDrops int64  `json:"write_drops"`
	Errors     int64  `json:"errors"`
	Skipped    int64  `json:"skipped"`
}

// handleStatusz renders the operational summary. Quantiles come from
// HistogramValue.Quantile over the registry snapshot, so the body is
// deterministic in the metric values (maps marshal with sorted keys).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, &apiError{status: http.StatusMethodNotAllowed, code: CodeMethodNotAllowed, msg: "use GET", allow: http.MethodGet}, nil)
		return
	}
	snap := s.reg.Snapshot()
	st := statusState{Status: "ok", Gauges: map[string]float64{}}
	if s.Draining() {
		st.Status = "draining"
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	st.RequestsTotal = counters["serve.requests_total"]
	st.Responses2xx = counters["serve.responses_2xx"]
	st.Responses4xx = counters["serve.responses_4xx"]
	st.Responses5xx = counters["serve.responses_5xx"]
	st.CacheHits = counters["serve.cache_hits"]
	st.CacheMisses = counters["serve.cache_misses"]
	st.Coalesced = counters["serve.coalesced_total"]
	if looked := st.CacheHits + st.CacheMisses; looked > 0 {
		st.CacheHitRatio = float64(st.CacheHits) / float64(looked)
	}
	if s.store != nil {
		st.Disk = &statusDisk{
			Hits:       counters["serve.disk_hits"],
			Misses:     counters["serve.disk_misses"],
			Writes:     counters["serve.disk_writes"],
			WriteDrops: counters["serve.disk_write_drops"],
			Errors:     counters["serve.disk_errors"],
			Skipped:    counters["serve.disk_skipped"],
		}
		if s.tierHealth != nil {
			st.Disk.Health = s.tierHealth.HealthState()
		}
	}
	for _, g := range snap.Gauges {
		st.Gauges[g.Name] = g.Value
	}
	stageName := func(name string) string {
		i := strings.Index(name, ".stage_")
		if i < 0 || !strings.HasSuffix(name, "_ms") {
			return ""
		}
		return name[i+len(".stage_") : len(name)-len("_ms")]
	}
	for _, h := range snap.Histograms {
		row := statusStage{
			Count: h.Total,
			P50MS: h.Quantile(0.5),
			P90MS: h.Quantile(0.9),
			P99MS: h.Quantile(0.99),
		}
		if h.Name == "serve.latency_ms" {
			row.Name = "request"
			st.LatencyMS = row
		} else if stage := stageName(h.Name); stage != "" {
			row.Name = stage
			st.Stages = append(st.Stages, row)
		}
	}
	body, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		s.writeError(w, internalError("%v", err), nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
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

// writeBody writes a 200 scheduling response. cacheState ("hit", "disk",
// "miss" or "coalesced") goes in the X-Schedd-Cache header: headers may differ by how
// the bytes were obtained, bodies never do. A batch envelope passes "" and
// gets no such header; its items carry their own states. clen is body's
// Content-Length value when the cache already holds it, else nil. The
// write itself is the trace's "write" stage.
func (s *Server) writeBody(w http.ResponseWriter, body []byte, clen []string, cacheState string, tr *obs.Trace) {
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
	w.Write(body)
	sp.End()
}

// writeError renders the uniform error envelope. Every non-2xx body the
// service writes goes through here, so the shape — and the stable code — is
// the same whether the failure was a bad method, a validation error, shed
// load or a recovered panic. tr may be nil (introspection endpoints); when
// live, rejected requests get their trace ID echoed exactly like successes.
func (s *Server) writeError(w http.ResponseWriter, aerr *apiError, tr *obs.Trace) {
	sp := tr.Start("write")
	if aerr.status >= http.StatusInternalServerError && aerr.status != http.StatusServiceUnavailable {
		s.mErrors.Inc()
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

// reqInfo carries the request summary for the access-log record without
// requiring a parsedRequest: the raw fast path fills it from the cache
// entry's metadata, the batch handler from its item count. Passed by value
// so the hit path stays allocation-free.
type reqInfo struct {
	heuristic string
	seed      uint64
	tasks     int
	machines  int
	items     int
	has       bool // request-shape fields are meaningful
}

// observe folds the request into the latency histogram, emits the
// request_done access-log event when an Observer is configured, and
// finishes the request's trace (parsedRequest-shaped convenience over
// observeInfo).
func (s *Server) observe(ep endpoint, status int, cacheState string, p *parsedRequest, start time.Time, tr *obs.Trace) {
	var info reqInfo
	if p != nil {
		info = reqInfo{heuristic: p.heuristic, seed: p.seed,
			tasks: p.tasks, machines: p.machines, has: true}
	}
	s.observeInfo(ep, status, cacheState, info, start, tr)
}

// observeInfo is the single request epilogue. All wall-clock readings stay
// on this observational path. It runs exactly once per scheduling arrival —
// which is what makes both the counter conservation invariant
// (requests_total == 2xx+4xx+5xx) and the one-root-span-per-request
// invariant hold.
func (s *Server) observeInfo(ep endpoint, status int, cacheState string, info reqInfo, start time.Time, tr *obs.Trace) {
	// Outcome accounting first: exactly once per scheduling arrival.
	switch {
	case status < 300:
		s.m2xx.Inc()
	case status < 500:
		s.m4xx.Inc()
	default:
		s.m5xx.Inc()
	}
	elapsed := time.Since(start)
	s.hLatency.Observe(float64(elapsed) / float64(time.Millisecond))
	if s.opts.Observer != nil {
		ev := obs.RequestDone{
			Endpoint:  string(ep),
			Status:    status,
			Cache:     cacheState,
			TraceID:   tr.ID(),
			ElapsedNS: elapsed.Nanoseconds(),
			Items:     info.items,
		}
		if info.has {
			ev.Heuristic = info.heuristic
			ev.Seed = info.seed
			ev.Tasks = info.tasks
			ev.Machines = info.machines
		}
		s.opts.Observer.Observe(ev)
	}
	tr.Finish(status, cacheState)
}

// String summarizes the server configuration for logs.
func (s *Server) String() string {
	cache := "off"
	if s.cache != nil {
		cache = fmt.Sprintf("%d entries", s.cache.max)
	}
	return fmt.Sprintf("serve: %d workers, queue %d, cache %s, timeout %s",
		s.opts.Workers, s.opts.QueueDepth, cache, s.opts.RequestTimeout)
}

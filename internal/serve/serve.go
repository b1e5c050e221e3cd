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
	"fmt"
	"io"
	"net/http"
	"runtime"
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
	DefaultRequestTimeout = 5 * time.Second
)

// The admission caps every scheduling front enforces. A request over one
// is refused with 413 before any per-cell or per-item work; the gateway
// reads the same constants, so its refusals are a single instance's.
const (
	// MaxBodyBytes bounds request bodies.
	MaxBodyBytes = 1 << 20
	// MaxCells caps tasks×machines per request: 512×512, far above every
	// workload in the paper, far below what would let one request
	// monopolize a worker.
	MaxCells = 1 << 18
	// MaxEstimatedBytes caps the per-request memory estimate (instance,
	// heuristic scratch and response, see estimateBytes).
	MaxEstimatedBytes = 64 << 20
	// MaxBatchItems caps the item count of one POST /v1/batch body.
	MaxBatchItems = 256
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
	// RequestTimeout caps each request's deadline; a request's timeout_ms
	// may lower it but never raise it. 0 means DefaultRequestTimeout.
	RequestTimeout time.Duration
	// PanicTrigger, when non-nil, runs in the worker during each compute,
	// once the request's instance is decoded and before the heuristic or
	// engine runs, with the request's seed. It exists so chaos scenarios and
	// tests can exercise the panic-isolation path with a
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
// and cache behind it. Create with NewServer; stop with Drain. The
// embedded Front owns the HTTP lifecycle around the handlers.
type Server struct {
	*Front
	opts  Options
	cache *lru
	queue chan *job

	workers  sync.WaitGroup
	stopOnce sync.Once
	stopped  chan struct{} // closed once the workers are gone and the store is flushed

	// Disk tier (nil/unused when Options.Store is nil): reads happen inline
	// in resolve; writes flow worker → storeQ → storeWriter goroutine.
	// tierHealth is non-nil when the store also satisfies TierHealth, in
	// which case both paths pass its consult gates (graceful degradation).
	store      ResultStore
	tierHealth TierHealth
	storeQ     chan storeWrite
	storeDone  chan struct{}
	storeStop  sync.Once

	queued atomic.Int64

	// flights coalesces concurrent identical cache misses (singleflight):
	// the first request for a key computes, followers wait for its bytes.
	flightMu sync.Mutex
	flights  map[string]*flight

	mHits       *obs.Counter
	mMisses     *obs.Counter
	mCoalesced  *obs.Counter
	mShed       *obs.Counter
	mTimeouts   *obs.Counter
	mBatches    *obs.Counter
	mBatchItems *obs.Counter
	// Disk-tier traffic. Registered only when a store is configured, so
	// storeless deployments' /metricz output is unchanged.
	mDiskHits   *obs.Counter
	mDiskMisses *obs.Counter
	mDiskWrites *obs.Counter
	mDiskDrops  *obs.Counter
	// Failed disk_lookup reads and failed write-behind appends, apart: a
	// sick disk may fail one and not the other.
	mDiskReadErrors  *obs.Counter
	mDiskWriteErrors *obs.Counter
	// Degradation observability (health-aware stores only): consults the
	// gate declined, and the current health state as a gauge.
	mDiskSkipped *obs.Counter
	gDiskHealth  *obs.Gauge

	gQueue *obs.Gauge

	// testHookDequeued, when non-nil, runs in the worker goroutine after a
	// job is dequeued and before it is computed. Tests use it to hold jobs
	// in flight deterministically; it must never be set in production.
	testHookDequeued func(*job)
	// testHookComputed, when non-nil, runs in the worker goroutine after
	// each computed job with the scratch the worker keeps for the next one.
	testHookComputed func(*computeScratch)

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
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	front := NewFront("serve", opts.Metrics, opts.Tracer, opts.Observer)
	reg := front.reg
	front.mErrors = reg.Counter("serve.errors_total")
	s := &Server{
		Front:   front,
		opts:    opts,
		queue:   make(chan *job, opts.QueueDepth),
		stopped: make(chan struct{}),
		flights: make(map[string]*flight),

		mHits:       reg.Counter("serve.cache_hits"),
		mMisses:     reg.Counter("serve.cache_misses"),
		mCoalesced:  reg.Counter("serve.coalesced_total"),
		mShed:       reg.Counter("serve.shed_total"),
		mTimeouts:   reg.Counter("serve.timeouts_total"),
		mBatches:    reg.Counter("serve.batch_requests_total"),
		mBatchItems: reg.Counter("serve.batch_items_total"),
		gQueue:      reg.Gauge("serve.queue_depth"),
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
		s.mDiskReadErrors = reg.Counter("serve.disk_read_errors")
		s.mDiskWriteErrors = reg.Counter("serve.disk_write_errors")
		if th, ok := opts.Store.(TierHealth); ok {
			s.tierHealth = th
			s.mDiskSkipped = reg.Counter("serve.disk_skipped")
			s.gDiskHealth = reg.Gauge("serve.disk_health")
			s.noteDiskHealth()
		}
		go s.storeWriter()
	}
	s.mux = http.NewServeMux()
	for _, ep := range []endpoint{endpointMap, endpointIterate} {
		s.mux.HandleFunc(string(ep), s.Handle(string(ep), nil, s.handleSchedule(ep)))
	}
	s.mux.HandleFunc(string(endpointBatch), s.Handle(string(endpointBatch), s.mBatches, s.handleBatch))
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

// Drain gracefully stops the server: the front's Drain (new scheduling
// requests are refused with 503 immediately, in-flight requests run to
// completion), then the worker pool exits and the write-behind queue is
// flushed. It returns ctx's error if the context expires first, whether
// requests are still in flight or a worker is still computing a job its
// handler has abandoned (a request past its deadline gets its 504 at
// once). In the latter case the compute keeps running in the background,
// its result reaches no client, and the store flush runs after it
// finishes; a later Drain waits for both. Drain is idempotent and safe to
// call concurrently. Callers embedding the handler in an http.Server
// should call http.Server.Shutdown first (to stop accepting connections),
// then Drain.
func (s *Server) Drain(ctx context.Context) error {
	if err := s.Front.Drain(ctx); err != nil {
		return err
	}
	s.stopOnce.Do(func() {
		close(s.queue)
		go func() {
			s.workers.Wait()
			// Workers (the only storeQ senders) are gone; flush the
			// write-behind queue so every computed body is durable before
			// the caller closes the store.
			s.drainStore()
			close(s.stopped)
		}()
	})
	select {
	case <-s.stopped:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker computes queued jobs until the queue is closed. Jobs whose context
// is already done are skipped: the produced response could no longer reach
// the client, and skipping keeps a timed-out backlog from stalling drain.
//
// Each worker owns one computeScratch, reused by every job it computes; a
// job that grew it past MaxPooledScratch leaves it behind for the garbage
// collector and the worker starts the next job on a fresh one.
func (s *Server) worker() {
	defer s.workers.Done()
	sc := new(computeScratch)
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
		body, err := s.computeJob(j, sc)
		if sc.footprint() > MaxPooledScratch {
			sc = new(computeScratch)
		}
		if s.testHookComputed != nil {
			s.testHookComputed(sc)
		}
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
//
// The job computes in the worker's scratch sc, and its body is marshaled
// before computeJob returns, so the next job may overwrite sc.
func (s *Server) computeJob(j *job, sc *computeScratch) (body []byte, aerr *apiError) {
	defer func() {
		if v := recover(); v != nil {
			// The compute (or marshal) span is still open; the handler's
			// Finish force-closes it as Unfinished, which is how a panicking
			// request still yields a complete span tree.
			body, aerr = nil, s.recoverPanic(string(j.p.endpoint), v)
		}
	}()
	sp := j.tr.Start("compute")
	in, err := j.p.instance(sc)
	if err != nil {
		// Unreachable: the key holds only cells and ready times that
		// passed validation at parse.
		aerr = internalError("decoding the instance from its key: %v", err)
		sp.SetErr(aerr.code)
		sp.End()
		return nil, aerr
	}
	if s.opts.PanicTrigger != nil {
		// Inside the compute span, with the scratch already rewritten,
		// where a real heuristic or engine panic would land.
		s.opts.PanicTrigger(j.p.seed)
	}
	v, aerr := j.p.run(in, sc)
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

// handleSchedule serves one scheduling endpoint between the front's gate
// and its epilogue: validate, consult the cache, join the key's in-flight
// computation, or queue for a worker under the request deadline.
func (s *Server) handleSchedule(ep endpoint) func(http.ResponseWriter, *http.Request, Arrival) {
	rawHead := rawHeadSingleton(ep)
	return func(w http.ResponseWriter, r *http.Request, a Arrival) {
		tr := a.tr
		sc := getScratch()
		defer putScratch(sc)
		sp := tr.Start("decode")
		body, ok := a.ReadBody(w, r, sc.buf, sp)
		sc.buf = body
		if !ok {
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
				s.writeBody(w, http.StatusOK, c.body, c.clen, "hit", tr)
				a.Done(http.StatusOK, "hit", c.meta.summary())
				return
			}
		}
		d, aerr := decodeBody(body, false, sc)
		if aerr != nil {
			sp.SetErr(aerr.code)
			sp.End()
			a.fail(w, aerr)
			return
		}
		sp.End()
		sp = tr.Start("validate")
		p, aerr := d.admit(ep, guarded)
		if aerr != nil {
			sp.SetErr(aerr.code)
			sp.End()
			a.fail(w, aerr)
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
			a.Done(aerr.status, state, metaOf(p).summary())
			return
		}
		s.writeBody(w, http.StatusOK, body2, nil, state, tr)
		a.Done(http.StatusOK, state, metaOf(p).summary())
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
			s.mDiskReadErrors.Inc()
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

// summary is the front's own part of a request's access-log record: the
// request shape, or a batch envelope's item count.
func (m entryMeta) summary() obs.RequestDone {
	return obs.RequestDone{Heuristic: m.heuristic, Seed: m.seed, Tasks: m.tasks, Machines: m.machines, Items: m.items}
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

// MaxPooledScratch bounds the buffers the scratch pool keeps, the compute
// scratch each worker keeps and the gateway's pooled forward buffers: one
// large body, a large batch envelope assembled in key, or one large
// computation must not stay pinned after its request is done.
const MaxPooledScratch = 256 << 10

var scratchPool = sync.Pool{New: func() any { return &reqScratch{buf: make([]byte, 0, 4096)} }}

func getScratch() *reqScratch { return scratchPool.Get().(*reqScratch) }

func putScratch(sc *reqScratch) {
	if cap(sc.buf) <= MaxPooledScratch && cap(sc.key) <= MaxPooledScratch &&
		8*(cap(sc.cells)+cap(sc.ready)) <= MaxPooledScratch {
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
	if !s.GetOnly(w, r) {
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
	if !s.GetOnly(w, r) {
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
	Health      string `json:"health,omitempty"`
	Hits        int64  `json:"hits"`
	Misses      int64  `json:"misses"`
	Writes      int64  `json:"writes"`
	WriteDrops  int64  `json:"write_drops"`
	ReadErrors  int64  `json:"read_errors"`
	WriteErrors int64  `json:"write_errors"`
	Skipped     int64  `json:"skipped"`
}

// handleStatusz renders the operational summary. Quantiles come from
// HistogramValue.Quantile over the registry snapshot, so the body is
// deterministic in the metric values (maps marshal with sorted keys).
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !s.GetOnly(w, r) {
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
			Hits:        counters["serve.disk_hits"],
			Misses:      counters["serve.disk_misses"],
			Writes:      counters["serve.disk_writes"],
			WriteDrops:  counters["serve.disk_write_drops"],
			ReadErrors:  counters["serve.disk_read_errors"],
			WriteErrors: counters["serve.disk_write_errors"],
			Skipped:     counters["serve.disk_skipped"],
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

// String summarizes the server configuration for logs.
func (s *Server) String() string {
	cache := "off"
	if s.cache != nil {
		cache = fmt.Sprintf("%d entries", s.cache.max)
	}
	return fmt.Sprintf("serve: %d workers, queue %d, cache %s, timeout %s",
		s.opts.Workers, s.opts.QueueDepth, cache, s.opts.RequestTimeout)
}

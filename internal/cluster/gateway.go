package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Backend names one schedd instance the gateway fronts.
type Backend struct {
	// Name is the rendezvous identity: routing depends on the name set, not
	// on URLs, so a backend can move (new port, new host) without remapping
	// any keys as long as its name is stable.
	Name string
	// URL is the backend's base URL, e.g. "http://127.0.0.1:8081".
	URL string
}

// Options configures a Gateway.
type Options struct {
	// Backends is the member set. At least one; names must be unique.
	Backends []Backend
	// Client is the per-backend resilient-client template (retries, backoff,
	// breaker, per-attempt timeout). Each backend gets its own client built
	// from it: Seed offset by the backend's index in sorted-name order (so
	// jitter streams are independent), Metrics replaced by a private registry
	// (the breaker-state gauge is per-backend). Observer is shared.
	// A nil Client.HTTPClient means pooled connections (newTransport).
	Client client.Options
	// Metrics receives gateway.* counters and gauges; nil creates a private
	// registry.
	Metrics *obs.Metrics
	// Observer, when non-nil, receives one obs.GatewayRoute event per routed
	// unit (singleton request or batch item, input order) and one
	// obs.RequestDone per arrival, plus the per-backend clients'
	// obs.BreakerTransition events.
	Observer obs.Observer
	// Tracer, when non-nil, opens one deterministic trace per request: a
	// root "gateway" span plus route, backend_wait (one per backend tried),
	// batch_merge and write stages. Identity derives from the canonical
	// request key exactly like a backend's trace. A nil Tracer costs
	// nothing.
	Tracer *obs.Tracer
}

// Gateway is the sharded cluster front: an http.Handler that routes every
// scheduling request to a backend by the canonical request key via
// rendezvous hashing, fails over along each key's deterministic preference
// order, and merges batch fan-outs byte-identically to a single instance.
// Create with NewGateway; stop with Drain, which is the embedded front's:
// backends are not touched, they drain on their own schedule.
type Gateway struct {
	*serve.Front
	opts     Options
	router   *Router
	backends map[string]*gwBackend
	mux      *http.ServeMux
	hc       *http.Client // introspection probes (healthz/metricz/statusz)

	// memos route repeat bodies, one per namespace: /v1/map, /v1/iterate
	// and itemNS.
	memos map[string]*routeMemo

	mBatches    *obs.Counter
	mBatchItems *obs.Counter
	mFailovers  *obs.Counter
	mUnavail    *obs.Counter
	mMemoHits   *obs.Counter
}

// gwBackend is one member with its resilient client and routed counter.
type gwBackend struct {
	name    string
	url     string
	urls    map[string]string // scheduling path -> url+path, built once
	cl      *client.Client
	mRouted *obs.Counter
}

// NewGateway builds a gateway over the given backends.
func NewGateway(opts Options) (*Gateway, error) {
	names := make([]string, len(opts.Backends))
	for i, b := range opts.Backends {
		names[i] = b.Name
	}
	router, err := NewRouter(names)
	if err != nil {
		return nil, err
	}
	probes := opts.Client.HTTPClient
	if probes == nil {
		// The forwarding clients and the introspection probes share one
		// pool; only the probes carry a whole-exchange timeout (forwarded
		// attempts take theirs from contexts).
		tr := newTransport()
		opts.Client.HTTPClient = &http.Client{Transport: tr}
		probes = &http.Client{Transport: tr, Timeout: 5 * time.Second}
	}
	front := serve.NewFront("gateway", opts.Metrics, opts.Tracer, opts.Observer)
	reg := front.Metrics()
	g := &Gateway{
		Front:    front,
		opts:     opts,
		router:   router,
		backends: make(map[string]*gwBackend, len(opts.Backends)),

		mBatches:    reg.Counter("gateway.batch_requests_total"),
		mBatchItems: reg.Counter("gateway.batch_items_total"),
		mFailovers:  reg.Counter("gateway.failovers_total"),
		mUnavail:    reg.Counter("gateway.unavailable_total"),
		mMemoHits:   reg.Counter("gateway.route_memo_hits"),
	}
	g.memos = map[string]*routeMemo{}
	for _, ns := range []string{"/v1/map", "/v1/iterate", itemNS} {
		g.memos[ns] = newRouteMemo(ns)
	}
	byName := make(map[string]string, len(opts.Backends))
	for _, b := range opts.Backends {
		byName[b.Name] = b.URL
	}
	for i, name := range router.Members() {
		co := opts.Client
		// Independent jitter streams per backend, derived deterministically
		// from the template seed and the sorted member order.
		co.Seed += uint64(i)
		// The breaker-state gauge is per-backend state; a shared registry
		// would collapse every backend onto one gauge.
		co.Metrics = obs.NewMetrics()
		co.Observer = opts.Observer
		co.Tracer = nil // the gateway emits its own spans
		url := byName[name]
		urls := make(map[string]string, 3)
		for _, p := range []string{"/v1/map", "/v1/iterate", "/v1/batch"} {
			urls[p] = url + p
		}
		g.backends[name] = &gwBackend{
			name:    name,
			url:     url,
			urls:    urls,
			cl:      client.New(co),
			mRouted: reg.Counter("gateway.routed." + name),
		}
	}
	g.hc = probes
	g.mux = http.NewServeMux()
	for _, ep := range []string{"/v1/map", "/v1/iterate"} {
		g.mux.HandleFunc(ep, g.Handle(ep, nil, g.handleSchedule(ep)))
	}
	g.mux.HandleFunc("/v1/batch", g.Handle("/v1/batch", g.mBatches, g.handleBatch))
	g.mux.HandleFunc("/healthz", g.handleHealthz)
	g.mux.HandleFunc("/metricz", g.handleMetricz)
	g.mux.HandleFunc("/statusz", g.handleStatusz)
	return g, nil
}

// Handler returns the gateway's HTTP handler: the same endpoint surface as
// a single schedd instance.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Router returns the gateway's rendezvous router (for observers that want
// to verify routing decisions independently).
func (g *Gateway) Router() *Router { return g.router }

// BreakerStates reports each backend's circuit-breaker state by name —
// the read-only view /statusz and the chaos harness consume.
func (g *Gateway) BreakerStates() map[string]string {
	out := make(map[string]string, len(g.backends))
	for name, b := range g.backends {
		out[name] = b.cl.BreakerState()
	}
	return out
}

// String summarizes the gateway configuration for logs.
func (g *Gateway) String() string {
	return fmt.Sprintf("gateway: %d backends (%v)", len(g.backends), g.router.Members())
}

// route is one routed unit's decision record, emitted as an
// obs.GatewayRoute in the request epilogue.
type route struct {
	endpoint  string
	keyHash   uint64
	primary   string
	served    string
	failovers int
	items     int
}

// forwardResult is the outcome of forwarding one body along a key's
// preference order.
type forwardResult struct {
	status int
	body   []byte // verbatim backend bytes (trailing newline included), in fwdScratch.resp
	cache  string // X-Schedd-Cache echo, 2xx only
	served string // backend that answered; "" when none was reachable
	tried  int    // backends abandoned before served answered
}

// fwdScratch is one gateway request's pooled storage: the request body,
// lent to the transport under loan, and the buffer every backend response
// of the request is read into and relayed from.
type fwdScratch struct {
	body []byte
	loan client.Loan
	resp []byte
}

var fwdPool = sync.Pool{New: func() any { return new(fwdScratch) }}

func getFwd() *fwdScratch { return fwdPool.Get().(*fwdScratch) }

// keep adopts body's storage as the response buffer when the read grew
// past it.
func (fs *fwdScratch) keep(body []byte) {
	if cap(body) > cap(fs.resp) {
		fs.resp = body[:0]
	}
}

// release returns fs to the pool once its response is written, under the
// loan's release rule (client.Loan): while the transport may still read
// a reader it was handed over the request body, fs is left to the garbage
// collector instead. Buffers grown past serve.MaxPooledScratch are never
// pooled.
func (fs *fwdScratch) release() {
	if fs.loan.Returned() && cap(fs.body) <= serve.MaxPooledScratch && cap(fs.resp) <= serve.MaxPooledScratch {
		fwdPool.Put(fs)
	}
}

// read reads the request body into fs's storage through the front's
// reader (serve.Arrival.ReadBody) and starts its loan. The decode span
// covers the read alone.
func (fs *fwdScratch) read(w http.ResponseWriter, r *http.Request, a *serve.Arrival) ([]byte, bool) {
	sp := a.Trace().Start("decode")
	body, ok := a.ReadBody(w, r, fs.body, sp)
	fs.body = body
	fs.loan.Reset()
	if ok {
		sp.End()
	}
	return body, ok
}

// forward posts fs's body along the key's rendezvous preference order:
// the owner first, then each next-ranked backend while the previous one is
// unreachable (see attempt). When every backend is exhausted the result
// has served=="" and the caller renders the gateway's own 503
// upstream_unavailable.
func (g *Gateway) forward(ctx context.Context, rank []string, path string, fs *fwdScratch, tr *obs.Trace) forwardResult {
	for i, name := range rank {
		if res, ok := g.attempt(ctx, g.backends[name], path, fs.body, &fs.loan, fs, tr); ok {
			if i > 0 {
				g.mFailovers.Add(int64(i))
			}
			res.served, res.tried = name, i
			return res
		}
	}
	g.mUnavail.Inc()
	return forwardResult{status: http.StatusServiceUnavailable, tried: len(rank)}
}

// attempt posts body to backend b under one backend_wait span (under
// loan when non-nil), reads the response into fs, and applies the
// gateway's one per-attempt rule. ok is true when the backend answered: a
// 2xx response, or a deterministic refusal (a status !client.Retryable,
// 400/404/413/422...) whose exact bytes are the answer, since every
// backend would say the same and failing over would only recompute the
// envelope elsewhere. ok is false when the backend is unreachable — open
// breaker, retries exhausted on retryable statuses, or transport failure —
// and the span is tagged breaker_open, upstream_status or transport.
func (g *Gateway) attempt(ctx context.Context, b *gwBackend, path string, body []byte, loan *client.Loan, fs *fwdScratch, tr *obs.Trace) (forwardResult, bool) {
	b.mRouted.Inc()
	sp := tr.Start("backend_wait")
	defer sp.End()
	resp, err := b.cl.PostInto(ctx, b.urls[path], body, loan, fs.resp)
	if err == nil {
		fs.keep(resp.Body)
		sp.SetStatus(resp.Status)
		sp.SetCache(resp.Cache)
		return forwardResult{status: resp.Status, body: resp.Body, cache: resp.Cache}, true
	}
	var se *client.StatusError
	switch {
	case errors.As(err, &se) && !client.Retryable(se.Status):
		fs.keep(se.Body)
		sp.SetStatus(se.Status)
		return forwardResult{status: se.Status, body: se.Body}, true
	case errors.Is(err, client.ErrBreakerOpen):
		sp.SetErr("breaker_open")
	case se != nil:
		sp.SetStatus(se.Status)
		sp.SetErr("upstream_status")
	default:
		sp.SetErr("transport")
	}
	return forwardResult{}, false
}

// handleSchedule serves one scheduling endpoint between the front's gate
// and its epilogue: compute the canonical routing key, forward along the
// rendezvous order, and relay the backend's bytes verbatim. The gateway
// never alters a response body — byte identity with a single instance is
// structural.
func (g *Gateway) handleSchedule(ep string) func(http.ResponseWriter, *http.Request, serve.Arrival) {
	memo := g.memos[ep]
	return func(w http.ResponseWriter, r *http.Request, a serve.Arrival) {
		tr := a.Trace()
		fs := getFwd()
		defer fs.release()
		body, ok := fs.read(w, r, &a)
		if !ok {
			return
		}
		// route: derive the canonical key's hash (the exact key a backend
		// would cache under — same-key requests land on the same warm cache)
		// and the preference order; a repeat body takes the hash from the
		// route memo. Bodies a backend would reject before keying route by
		// raw bytes: still deterministic, and the owning backend produces
		// the canonical error envelope.
		sp := tr.Start("route")
		kh := g.routeHash(memo, body)
		tr.SetKeyHash(kh)
		rank := g.router.RankHash(kh)
		sp.End()
		res := g.forward(r.Context(), rank, ep, fs, tr)
		g.respond(w, &a, res, route{endpoint: ep, keyHash: kh, primary: rank[0], served: res.served, failovers: res.tried})
	}
}

// respond writes a forwarded result — the backend's status, bytes and
// cache state verbatim, or the gateway's own 503 upstream_unavailable when
// no backend was reachable — and runs the epilogue with its one route.
func (g *Gateway) respond(w http.ResponseWriter, a *serve.Arrival, res forwardResult, rt route) {
	if res.served == "" {
		a.WriteError(w, http.StatusServiceUnavailable, serve.CodeUpstreamUnavailable, "no backend reachable")
	} else {
		a.WriteBody(w, res.status, res.body, res.cache)
	}
	g.done(a, res.status, res.cache, []route{rt}, rt.items)
}

// routeHash returns body's routing hash through memo, counting memo hits.
func (g *Gateway) routeHash(memo *routeMemo, body []byte) uint64 {
	kh, hit := memo.keyHash(body)
	if hit {
		g.mMemoHits.Inc()
	}
	return kh
}

// RawRouteKey is the routing key for bodies without a canonical key, and
// for batches forwarded whole: deterministic in the exact bytes, namespaced
// by endpoint (ns "item" for batch items) away from canonical keys.
func RawRouteKey(ns string, body []byte) string {
	return "raw\x00" + ns + "\x00" + string(body)
}

// done is the gateway's part of the epilogue: one GatewayRoute event per
// routed unit (input order), then the front's epilogue with the request
// summary.
func (g *Gateway) done(a *serve.Arrival, status int, cache string, routes []route, items int) {
	if g.opts.Observer != nil {
		for _, rt := range routes {
			g.opts.Observer.Observe(obs.GatewayRoute{
				Endpoint:  rt.endpoint,
				KeyHash:   fmt.Sprintf("%016x", rt.keyHash),
				Primary:   rt.primary,
				Served:    rt.served,
				Failovers: rt.failovers,
				Items:     rt.items,
			})
		}
	}
	a.Done(status, cache, obs.RequestDone{Items: items})
}

// handleBatch serves POST /v1/batch: split the body into the exact
// per-item extents a backend would see, route each item by its canonical
// key, dispatch one sub-batch per target backend, and merge the results
// strictly in input order with the shared envelope assembler — so the
// merged response is byte-identical to a single instance's (only the
// per-item cache field may differ cold-vs-warm, exactly as for a single
// instance). Unsplittable and over-cap bodies forward whole to one backend
// so error envelopes stay byte-identical too.
//
// Sub-batches dispatch serially in member order: the injector-facing
// request stream stays deterministic under chaos replay (concurrent
// fan-out would interleave nondeterministically at a shared backend), and
// cross-request concurrency still spreads load across the cluster.
func (g *Gateway) handleBatch(w http.ResponseWriter, r *http.Request, a serve.Arrival) {
	const ep = "/v1/batch"
	tr := a.Trace()
	fs := getFwd()
	defer fs.release()
	body, ok := fs.read(w, r, &a)
	if !ok {
		return
	}
	tr.SetKeyBytes(body)

	sp := tr.Start("route")
	items, split := serve.SplitBatchItems(body)
	g.mBatchItems.Add(int64(len(items)))
	if !split || len(items) == 0 || len(items) > serve.MaxBatchItems {
		// Forward the whole body to one backend (routed by its raw bytes):
		// the backend produces the canonical 400/422/413 envelope, so error
		// responses stay byte-identical to a single instance's. The cap is
		// the one the backend refuses by, so an over-cap batch is never
		// split.
		kh := KeyHash(RawRouteKey(ep, body))
		rank := g.router.RankHash(kh)
		sp.End()
		res := g.forward(r.Context(), rank, ep, fs, tr)
		g.respond(w, &a, res, route{endpoint: ep, keyHash: kh, primary: rank[0], served: res.served, failovers: res.tried, items: len(items)})
		return
	}
	// Per-item canonical keys and rendezvous hashes; malformed items route
	// by raw bytes and come back as the backend's per-item error envelope.
	khs := make([]uint64, len(items))
	memo := g.memos[itemNS]
	for i, raw := range items {
		khs[i] = g.routeHash(memo, raw)
	}
	sp.End()

	results := make([]serve.BatchItemResult, len(items))
	routes := make([]route, len(items))
	for i := range routes {
		routes[i] = route{endpoint: ep, keyHash: khs[i], primary: g.router.PickHash(khs[i])}
	}
	g.dispatch(r.Context(), items, khs, results, routes, fs, tr)

	msp := tr.Start("batch_merge")
	env := serve.AppendBatchResults(nil, results)
	msp.End()
	a.WriteBody(w, http.StatusOK, env, "")
	g.done(&a, http.StatusOK, "", routes, len(items))
}

// dispatch routes every item to the first member of its preference order
// not yet excluded, posts one sub-batch per target, and re-enters the
// items of a failed target with that backend excluded — per-item failover
// that preserves input order in the merged results. Items whose entire
// order is exhausted get the gateway's 503 upstream_unavailable envelope.
// Every sub-batch response is read into fs; what the merge keeps of one is
// copied out before the next is read.
func (g *Gateway) dispatch(ctx context.Context, items [][]byte, khs []uint64, results []serve.BatchItemResult, routes []route, fs *fwdScratch, tr *obs.Trace) {
	type work struct {
		idxs     []int
		excluded map[string]bool
	}
	queue := []work{{idxs: seq(len(items))}}
	for len(queue) > 0 {
		wk := queue[0]
		queue = queue[1:]
		// Group by each item's first non-excluded preference; sorted target
		// order keeps the backend-facing request stream deterministic.
		groups := map[string][]int{}
		for _, i := range wk.idxs {
			target := ""
			for _, name := range g.router.RankHash(khs[i]) {
				if !wk.excluded[name] {
					target = name
					break
				}
			}
			if target == "" {
				g.mUnavail.Inc()
				results[i] = serve.BatchItemResult{
					Status: http.StatusServiceUnavailable,
					Body:   serve.ErrorEnvelope(serve.CodeUpstreamUnavailable, "no backend reachable"),
				}
				routes[i].served = ""
				continue
			}
			groups[target] = append(groups[target], i)
		}
		targets := make([]string, 0, len(groups))
		for t := range groups {
			targets = append(targets, t)
		}
		sort.Strings(targets)
		for _, target := range targets {
			idxs := groups[target]
			// A sub-batch body is the request's own allocation, left to
			// the garbage collector, so it needs no loan.
			res, ok := g.attempt(ctx, g.backends[target], "/v1/batch", buildBatchBody(items, idxs), nil, fs, tr)
			switch {
			case ok && res.status < 300:
				if perItem, perr := parseBatchEnvelope(res.body, len(idxs)); perr == nil {
					for j, i := range idxs {
						results[i] = perItem[j]
						routes[i].served = target
						routes[i].failovers = len(wk.excluded)
						routes[i].items = len(idxs)
					}
					if n := len(wk.excluded); n > 0 {
						g.mFailovers.Add(int64(n * len(idxs)))
					}
					continue
				}
				// A 200 that isn't a well-formed envelope is a backend bug;
				// surface it per item rather than guessing.
				for _, i := range idxs {
					results[i] = serve.BatchItemResult{
						Status: http.StatusInternalServerError,
						Body:   serve.ErrorEnvelope(serve.CodeInternal, "backend returned an unparseable batch envelope"),
					}
					routes[i].served = target
				}
				continue
			case ok:
				// Deterministic refusal of the whole sub-batch (unreachable
				// in practice: items were already split and re-assembled
				// within caps). Apply the envelope to every item.
				env := bytes.Clone(trimNL(res.body))
				for _, i := range idxs {
					results[i] = serve.BatchItemResult{Status: res.status, Body: env}
					routes[i].served = target
				}
				continue
			}
			// Failover: re-enter these items with the target excluded.
			ex := make(map[string]bool, len(wk.excluded)+1)
			for k := range wk.excluded {
				ex[k] = true
			}
			ex[target] = true
			queue = append(queue, work{idxs: idxs, excluded: ex})
		}
	}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// buildBatchBody assembles a sub-batch body from the original items' exact
// byte extents, so each backend sees items byte-identical to the originals
// (per-item responses — and raw-alias cache hits — depend on exact bytes).
func buildBatchBody(items [][]byte, idxs []int) []byte {
	n := len(`{"items":[]}`)
	for _, i := range idxs {
		n += len(items[i]) + 1
	}
	dst := make([]byte, 0, n)
	dst = append(dst, `{"items":[`...)
	for j, i := range idxs {
		if j > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, items[i]...)
	}
	return append(dst, ']', '}')
}

// parseBatchEnvelope decodes a backend's batch response into per-item
// results. Body extents are json.RawMessage, so the item bytes survive
// verbatim for re-assembly.
func parseBatchEnvelope(envelope []byte, want int) ([]serve.BatchItemResult, error) {
	var br serve.BatchResponse
	if err := json.Unmarshal(envelope, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != want {
		return nil, fmt.Errorf("cluster: envelope has %d results, want %d", len(br.Results), want)
	}
	return br.Results, nil
}

func trimNL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		return b[:n-1]
	}
	return b
}

// gwHealth is the aggregated /healthz body.
type gwHealth struct {
	// Status is "ok" (every backend healthy), "degraded" (some backend
	// unreachable or draining — the gateway still fails over), or
	// "draining".
	Status   string            `json:"status"`
	Backends map[string]string `json:"backends"`
}

// handleHealthz probes every backend's /healthz and aggregates: the
// gateway serves 503 only when it is itself draining — a degraded cluster
// still routes around its dead members.
func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !g.GetOnly(w, r) {
		return
	}
	h := gwHealth{Status: "ok", Backends: map[string]string{}}
	for _, name := range g.router.Members() {
		state := g.probe(g.backends[name].url + "/healthz")
		h.Backends[name] = state
		if state != "ok" {
			h.Status = "degraded"
		}
	}
	status := http.StatusOK
	if g.Draining() {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(h)
	w.Write(append(body, '\n'))
}

// probe classifies one backend introspection endpoint: "ok", "draining" or
// "unreachable".
func (g *Gateway) probe(url string) string {
	resp, err := g.hc.Get(url)
	if err != nil {
		return "unreachable"
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return "ok"
	case http.StatusServiceUnavailable:
		return "draining"
	default:
		return "unreachable"
	}
}

// handleMetricz aggregates: the gateway's own registry snapshot plus each
// backend's raw /metricz body (null for unreachable backends).
func (g *Gateway) handleMetricz(w http.ResponseWriter, r *http.Request) {
	if !g.GetOnly(w, r) {
		return
	}
	gw, err := g.Metrics().Snapshot().JSON()
	if err != nil {
		g.WriteError(w, http.StatusInternalServerError, serve.CodeInternal, err.Error())
		return
	}
	backends := map[string]json.RawMessage{}
	for _, name := range g.router.Members() {
		backends[name] = g.fetchJSON(g.backends[name].url + "/metricz")
	}
	out := struct {
		Gateway  json.RawMessage            `json:"gateway"`
		Backends map[string]json.RawMessage `json:"backends"`
	}{Gateway: gw, Backends: backends}
	body, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		g.WriteError(w, http.StatusInternalServerError, serve.CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// fetchJSON retrieves one backend introspection body, returning JSON null
// when the backend is unreachable or the body is not valid JSON.
func (g *Gateway) fetchJSON(url string) json.RawMessage {
	resp, err := g.hc.Get(url)
	if err != nil {
		return json.RawMessage("null")
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || !json.Valid(body) {
		return json.RawMessage("null")
	}
	return body
}

// gwBackendStatus is one backend's row in the aggregated /statusz body.
// DiskHealth/DiskWriteDrops surface each backend's result-tier health state
// machine (healthy/degraded/offline) and dropped write-behind appends;
// both are omitted for backends running without a disk tier.
type gwBackendStatus struct {
	Name           string `json:"name"`
	URL            string `json:"url"`
	Health         string `json:"health"`
	Breaker        string `json:"breaker"`
	Routed         int64  `json:"routed"`
	DiskHealth     string `json:"disk_health,omitempty"`
	DiskWriteDrops int64  `json:"disk_write_drops,omitempty"`
}

// gwStatus is the aggregated /statusz body.
type gwStatus struct {
	Status        string            `json:"status"`
	RequestsTotal int64             `json:"requests_total"`
	Responses2xx  int64             `json:"responses_2xx"`
	Responses4xx  int64             `json:"responses_4xx"`
	Responses5xx  int64             `json:"responses_5xx"`
	BatchRequests int64             `json:"batch_requests"`
	BatchItems    int64             `json:"batch_items"`
	Failovers     int64             `json:"failovers"`
	Unavailable   int64             `json:"unavailable"`
	Backends      []gwBackendStatus `json:"backends"`
}

// diskStatus fetches one backend's /statusz and extracts its disk-tier
// section. Backends without a disk tier (or unreachable ones) report
// ("", 0), which the omitempty tags elide from the aggregated row.
func (g *Gateway) diskStatus(url string) (string, int64) {
	body := g.fetchJSON(url + "/statusz")
	var st struct {
		Disk *struct {
			Health     string `json:"health"`
			WriteDrops int64  `json:"write_drops"`
		} `json:"disk"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.Disk == nil {
		return "", 0
	}
	return st.Disk.Health, st.Disk.WriteDrops
}

// handleStatusz renders the cluster's operational summary: gateway
// counters plus per-backend health, breaker state and routed counts.
func (g *Gateway) handleStatusz(w http.ResponseWriter, r *http.Request) {
	if !g.GetOnly(w, r) {
		return
	}
	counters := map[string]int64{}
	for _, c := range g.Metrics().Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	st := gwStatus{
		Status:        "ok",
		RequestsTotal: counters["gateway.requests_total"],
		Responses2xx:  counters["gateway.responses_2xx"],
		Responses4xx:  counters["gateway.responses_4xx"],
		Responses5xx:  counters["gateway.responses_5xx"],
		BatchRequests: counters["gateway.batch_requests_total"],
		BatchItems:    counters["gateway.batch_items_total"],
		Failovers:     counters["gateway.failovers_total"],
		Unavailable:   counters["gateway.unavailable_total"],
	}
	if g.Draining() {
		st.Status = "draining"
	}
	for _, name := range g.router.Members() {
		b := g.backends[name]
		row := gwBackendStatus{
			Name:    name,
			URL:     b.url,
			Health:  g.probe(b.url + "/healthz"),
			Breaker: b.cl.BreakerState(),
			Routed:  counters["gateway.routed."+name],
		}
		row.DiskHealth, row.DiskWriteDrops = g.diskStatus(b.url)
		st.Backends = append(st.Backends, row)
	}
	body, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		g.WriteError(w, http.StatusInternalServerError, serve.CodeInternal, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

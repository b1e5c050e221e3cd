// Command schedgw is the deterministic sharded cluster gateway: an HTTP
// front over N schedd backends that routes every scheduling request to one
// backend by its canonical request key via rendezvous hashing (same key →
// same backend → warm cache), splits /v1/batch bodies per item and merges
// the fan-out byte-identically, and fails over along each key's
// deterministic preference order when backends die.
//
// The headline invariant, machine-checked by -selfcheck and the cluster
// chaos scenarios: a cluster of N backends returns byte-identical response
// bodies to a single schedd instance for every request — cache hit, miss,
// coalesced, or failed-over — under fault injection and backend loss.
//
// Usage:
//
//	schedgw -backends a=http://127.0.0.1:8081,b=http://127.0.0.1:8082 [flags]
//	schedgw -local 3 [flags]
//	schedgw -selfcheck
//
// Flags:
//
//	-addr 127.0.0.1:8090   gateway listen address (port 0 = ephemeral)
//	-backends name=url,... the cluster membership (names are the routing
//	                       identity: keep them stable across backend moves)
//	-local N               spin up N in-process schedd backends instead of
//	                       -backends (development and benchmarking)
//	-store-dir DIR         with -local: give each backend its own crash-safe
//	                       disk result tier under DIR/backend-N (internal/store)
//	-retries, -backoff, -client-timeout, -breaker-threshold
//	                       per-backend resilient-client tuning (internal/client)
//	-access-log, -trace-out, -drain-timeout
//	                       as in schedd
//
// Endpoints mirror a single schedd instance: POST /v1/map, /v1/iterate and
// /v1/batch route and relay; GET /healthz, /metricz and /statusz aggregate
// gateway state with per-backend health, metrics and breaker states.
//
// Every routed request is traced with the gateway's own stages — route
// (key derivation + rendezvous ranking), backend_wait (one per backend
// tried), batch_merge and write — extending the documented schedd stage
// set; IDs derive from the canonical request key, never the clock.
// -trace-out streams the spans as JSONL for cmd/schedtrace.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schedgw:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks a command-line mistake: bad flag syntax or a nonsensical
// value. main exits 2 for these (usage), 1 for runtime failures.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func exitCode(err error) int {
	switch {
	case err == nil:
		return 0
	case errors.As(err, &usageError{}):
		return 2
	default:
		return 1
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedgw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks an ephemeral port)")
		backendSpec   = fs.String("backends", "", "comma-separated name=url backend list, e.g. a=http://127.0.0.1:8081,b=http://127.0.0.1:8082")
		local         = fs.Int("local", 0, "spin up this many in-process schedd backends instead of -backends")
		storeDir      = fs.String("store-dir", "", "with -local: give each backend a crash-safe disk result tier under this directory (dir/backend-N)")
		retries       = fs.Int("retries", 2, "per-backend retries before failing over (-1 disables retries)")
		backoff       = fs.Duration("backoff", 5*time.Millisecond, "per-backend base retry backoff")
		clientTimeout = fs.Duration("client-timeout", 10*time.Second, "per-attempt deadline against a backend")
		threshold     = fs.Int("breaker-threshold", 0, "per-backend circuit-breaker threshold (0 = client default, negative disables)")
		seed          = fs.Uint64("seed", 1, "seed for the per-backend clients' backoff jitter")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "how long to wait for in-flight requests on shutdown")
		accessLog     = fs.String("access-log", "", "append request_done and gateway_route events as JSONL to this path")
		traceOut      = fs.String("trace-out", "", "append gateway spans as JSONL to this path (analyze with cmd/schedtrace)")
		selfcheck     = fs.Bool("selfcheck", false, "boot a local 3-backend cluster, verify the cluster-vs-singleton invariants end to end, drain, exit")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	// Validate flag values before any cluster or listener construction:
	// operator mistakes fail fast with usage (exit 2).
	switch {
	case *local < 0:
		return usagef("-local %d: must be >= 0", *local)
	case *retries < -1:
		return usagef("-retries %d: must be >= -1 (-1 disables retries)", *retries)
	case *drainTimeout <= 0:
		return usagef("-drain-timeout %s: must be positive", *drainTimeout)
	case *clientTimeout <= 0:
		return usagef("-client-timeout %s: must be positive", *clientTimeout)
	case *storeDir != "" && *local == 0:
		return usagef("-store-dir only applies to -local backends (remote backends own their own -store)")
	}
	if *selfcheck {
		if *backendSpec != "" || *local != 0 {
			return usagef("-selfcheck runs its own local cluster; drop -backends/-local")
		}
		return selfCheck(*traceOut, *accessLog, stdout)
	}

	var backends []cluster.Backend
	var localCluster *cluster.Local
	switch {
	case *local > 0 && *backendSpec != "":
		return usagef("-local and -backends are mutually exclusive")
	case *local > 0:
		var err error
		localCluster, err = cluster.StartLocalStores(*local, serve.Options{}, *storeDir)
		if err != nil {
			return err
		}
		defer localCluster.Close()
		backends = localCluster.Backends()
		for _, b := range backends {
			fmt.Fprintf(stdout, "schedgw: local backend %s on %s\n", b.Name, b.URL)
		}
	case *backendSpec != "":
		var err error
		backends, err = parseBackends(*backendSpec)
		if err != nil {
			return err
		}
	default:
		return usagef("need -backends, -local or -selfcheck")
	}

	reg := obs.NewMetrics()
	var observers obs.Multi
	var logSink *obs.JSONL
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		logSink = obs.NewJSONL(f)
		observers = append(observers, logSink)
	}
	// Tracing is always on, as in schedd: span durations feed /statusz-style
	// stage metrics on the gateway registry; -trace-out streams the spans.
	sinks := obs.Multi{obs.NewSpanMetricsObserver(reg, "gateway")}
	var traceSink *obs.JSONL
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		traceSink = obs.NewJSONL(f)
		sinks = append(sinks, traceSink)
	}

	gw, err := cluster.NewGateway(cluster.Options{
		Backends: backends,
		Client: client.Options{
			MaxRetries:       *retries,
			BaseBackoff:      *backoff,
			Timeout:          *clientTimeout,
			Seed:             *seed,
			BreakerThreshold: *threshold,
			// No HTTPClient: the gateway's pooled transport, the one
			// its benchmarks measure.
		},
		Metrics:  reg,
		Observer: observers,
		Tracer:   obs.NewTracer(sinks),
	})
	if err != nil {
		return err
	}

	if err := serveForever(gw, *addr, *drainTimeout, stdout); err != nil {
		return err
	}
	if logSink != nil {
		if err := logSink.Err(); err != nil {
			return fmt.Errorf("writing -access-log: %w", err)
		}
	}
	if traceSink != nil {
		if err := traceSink.Err(); err != nil {
			return fmt.Errorf("writing -trace-out: %w", err)
		}
	}
	return nil
}

// parseBackends parses the -backends grammar: comma-separated name=url.
func parseBackends(spec string) ([]cluster.Backend, error) {
	var out []cluster.Backend
	for _, part := range strings.Split(spec, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("-backends: %q is not name=url", part)
		}
		out = append(out, cluster.Backend{Name: name, URL: strings.TrimSuffix(url, "/")})
	}
	return out, nil
}

// serveForever listens on addr and routes until SIGTERM/SIGINT, then
// drains the gateway (backends drain on their own schedule).
func serveForever(gw *cluster.Gateway, addr string, drainTimeout time.Duration, stdout io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "schedgw: listening on http://%s (%s)\n", ln.Addr(), gw)
	hs := &http.Server{Handler: gw.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "schedgw: signal received, draining")
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := gw.Drain(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(stdout, "schedgw: drained")
	return nil
}

// selfCheck boots a 3-backend local cluster plus a single-instance
// reference, fronts the cluster with a gateway on an ephemeral port, and
// machine-checks the subsystem's invariants end to end over real HTTP:
// aggregated health, pinned Table-1 cluster-vs-singleton byte identity with
// stable warm-cache routing, batch split/merge with an isolated per-item
// 422, kill → failover → revive → rejoin with identical bytes throughout,
// the gateway trace stages, statusz aggregation, every builtin cluster
// chaos scenario, and a graceful drain. Only [ok  ] lines are printed.
func selfCheck(traceOut, accessLog string, stdout io.Writer) error {
	// Reference single instance: the source of every golden byte.
	ref := serve.NewServer(serve.Options{})
	refLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	refHS := &http.Server{Handler: ref.Handler()}
	go refHS.Serve(refLn)
	refBase := "http://" + refLn.Addr().String()

	local, err := cluster.StartLocal(3, serve.Options{})
	if err != nil {
		return err
	}
	defer local.Close()

	reg := obs.NewMetrics()
	spanCol := &obs.Collector{}
	sinks := obs.Multi{obs.NewSpanMetricsObserver(reg, "gateway"), spanCol}
	if traceOut != "" {
		f, err := os.OpenFile(traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		sinks = append(sinks, obs.NewJSONL(f))
	}
	var observers obs.Multi
	if accessLog != "" {
		f, err := os.OpenFile(accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		observers = append(observers, obs.NewJSONL(f))
	}

	gw, err := cluster.NewGateway(cluster.Options{
		Backends: local.Backends(),
		Client: client.Options{
			// No retries and no breaker: a dead backend must cost exactly one
			// failed attempt before deterministic failover, and a revived one
			// must rejoin on the next request.
			MaxRetries:       -1,
			BreakerThreshold: -1,
			Timeout:          5 * time.Second,
			Seed:             1,
			// No HTTPClient: the shipped pooled transport, so the
			// kill/failover/revive leg runs on the connections production
			// reuses.
		},
		Metrics:  reg,
		Observer: observers,
		Tracer:   obs.NewTracer(sinks),
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: gw.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "schedgw: selfcheck against %s (3 local backends)\n", base)

	// Leg 1: aggregated health — every backend probed, cluster ok.
	var health struct {
		Status   string            `json:"status"`
		Backends map[string]string `json:"backends"`
	}
	if err := getJSON(base+"/healthz", &health); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if health.Status != "ok" || len(health.Backends) != 3 {
		return fmt.Errorf("healthz: %+v, want ok with 3 backends", health)
	}
	fmt.Fprintln(stdout, "[ok  ] healthz aggregates all 3 backends")

	// Leg 2: pinned Table-1 byte identity + warm-cache routing stability.
	reqBody, err := json.Marshal(serve.Request{
		ETC:       experiments.MinMinExampleETC().Values(),
		Heuristic: "min-min",
		Ties:      "det",
		Seed:      1,
	})
	if err != nil {
		return err
	}
	golden, _, err := post(refBase+"/v1/iterate", reqBody)
	if err != nil {
		return fmt.Errorf("singleton reference: %w", err)
	}
	first, firstCache, err := post(base+"/v1/iterate", reqBody)
	if err != nil {
		return err
	}
	if !bytes.Equal(first, golden) {
		return fmt.Errorf("cluster response differs from the single instance:\n got %s\nwant %s", first, golden)
	}
	if firstCache != "miss" {
		return fmt.Errorf("first cluster request X-Schedd-Cache %q, want miss", firstCache)
	}
	second, secondCache, err := post(base+"/v1/iterate", reqBody)
	if err != nil {
		return err
	}
	if secondCache != "hit" || !bytes.Equal(second, golden) {
		return fmt.Errorf("second cluster request cache %q (want hit: same key, same backend, warm cache), bytes equal %v", secondCache, bytes.Equal(second, golden))
	}
	fmt.Fprintln(stdout, "[ok  ] pinned Table-1 trace through the cluster is byte-identical to a single instance; repeat routes to the warm cache")

	// Leg 3: batch split/merge across backends with an isolated 422.
	if err := batchLeg(base, refBase, stdout); err != nil {
		return err
	}

	// Leg 4: kill → failover → revive → rejoin.
	key, ok := serve.CanonicalKey("/v1/iterate", reqBody)
	if !ok {
		return fmt.Errorf("pinned body has no canonical key")
	}
	rank := gw.Router().Rank(key)
	var ownerIdx int
	fmt.Sscanf(rank[0], "backend-%d", &ownerIdx)
	local.Kill(ownerIdx)
	failed, failedCache, err := post(base+"/v1/iterate", reqBody)
	if err != nil {
		return fmt.Errorf("failover request: %w", err)
	}
	if !bytes.Equal(failed, golden) {
		return fmt.Errorf("failed-over response differs from the single instance")
	}
	if failedCache != "miss" {
		return fmt.Errorf("failover X-Schedd-Cache %q, want miss (the failover backend computes cold)", failedCache)
	}
	if err := local.Revive(ownerIdx); err != nil {
		return err
	}
	revived, revivedCache, err := post(base+"/v1/iterate", reqBody)
	if err != nil {
		return fmt.Errorf("post-revive request: %w", err)
	}
	if !bytes.Equal(revived, golden) || revivedCache != "hit" {
		return fmt.Errorf("post-revive cache %q bytes-equal %v, want hit on the rejoined owner's warm cache", revivedCache, bytes.Equal(revived, golden))
	}
	fmt.Fprintf(stdout, "[ok  ] kill %s: failover computes identical bytes; revive: key returns to the owner's warm cache\n", rank[0])

	// Leg 5: the gateway trace stages.
	if err := traceLeg(spanCol, stdout); err != nil {
		return err
	}

	// Leg 6: statusz aggregation — breaker states, routed counts,
	// conservation.
	var st struct {
		Status        string `json:"status"`
		RequestsTotal int64  `json:"requests_total"`
		Responses2xx  int64  `json:"responses_2xx"`
		Responses4xx  int64  `json:"responses_4xx"`
		Responses5xx  int64  `json:"responses_5xx"`
		Failovers     int64  `json:"failovers"`
		Backends      []struct {
			Name    string `json:"name"`
			Health  string `json:"health"`
			Breaker string `json:"breaker"`
			Routed  int64  `json:"routed"`
		} `json:"backends"`
	}
	if err := getJSON(base+"/statusz", &st); err != nil {
		return fmt.Errorf("statusz: %w", err)
	}
	if len(st.Backends) != 3 {
		return fmt.Errorf("statusz: %d backends, want 3", len(st.Backends))
	}
	var routed int64
	for _, b := range st.Backends {
		if b.Breaker != "closed" {
			return fmt.Errorf("statusz: backend %s breaker %q, want closed", b.Name, b.Breaker)
		}
		if b.Health != "ok" {
			return fmt.Errorf("statusz: backend %s health %q, want ok", b.Name, b.Health)
		}
		routed += b.Routed
	}
	if st.RequestsTotal == 0 || st.Responses2xx+st.Responses4xx+st.Responses5xx != st.RequestsTotal {
		return fmt.Errorf("statusz: outcome conservation failed: %d requests, %d+%d+%d outcomes",
			st.RequestsTotal, st.Responses2xx, st.Responses4xx, st.Responses5xx)
	}
	if st.Failovers < 1 {
		return fmt.Errorf("statusz: failovers %d, want >= 1 (the kill leg failed over)", st.Failovers)
	}
	fmt.Fprintf(stdout, "[ok  ] statusz aggregates 3 closed breakers, %d routed posts, conserved outcomes, %d failover(s)\n", routed, st.Failovers)

	// Leg 7: every builtin cluster chaos scenario, every invariant
	// machine-checked.
	for _, sc := range chaos.Builtin() {
		if sc.Topology() != "cluster" {
			continue
		}
		rep, err := chaos.Run(sc)
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			return fmt.Errorf("cluster chaos scenario %s: %w", sc.Name, err)
		}
		fmt.Fprintf(stdout, "[ok  ] cluster chaos scenario %s: %d invariants hold\n", rep.Scenario, len(rep.Invariants))
	}

	// Leg 8: drain.
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := gw.Drain(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := refHS.Shutdown(sctx); err != nil {
		return fmt.Errorf("reference shutdown: %w", err)
	}
	if err := ref.Drain(sctx); err != nil {
		return fmt.Errorf("reference drain: %w", err)
	}
	fmt.Fprintln(stdout, "[ok  ] drained")
	return nil
}

// batchLeg drives a mixed batch through the gateway: items owned by
// different backends, one invalid item. Per-item results must be
// byte-identical to the single instance's — the 422 isolated in place.
func batchLeg(base, refBase string, stdout io.Writer) error {
	req := serve.Request{
		ETC:       experiments.MinMinExampleETC().Values(),
		Heuristic: "min-min",
		Ties:      "det",
		Seed:      1,
	}
	bad := req
	bad.Heuristic = "nope"
	items := []serve.BatchItem{
		{Endpoint: "iterate", Request: req},
		{Endpoint: "iterate", Request: bad},
	}
	// Vary the seed so items spread across backends: distinct keys rank
	// independently under rendezvous hashing.
	for seed := uint64(2); seed <= 5; seed++ {
		rq := req
		rq.Seed = seed
		items = append(items, serve.BatchItem{Endpoint: "iterate", Request: rq})
	}
	body, err := json.Marshal(serve.BatchRequest{Items: items})
	if err != nil {
		return err
	}
	goldenEnv, _, err := post(refBase+"/v1/batch", body)
	if err != nil {
		return fmt.Errorf("batch leg: singleton reference: %w", err)
	}
	env, _, err := post(base+"/v1/batch", body)
	if err != nil {
		return fmt.Errorf("batch leg: %w", err)
	}
	var want, got serve.BatchResponse
	if err := json.Unmarshal(goldenEnv, &want); err != nil {
		return fmt.Errorf("batch leg: decoding singleton envelope: %w", err)
	}
	if err := json.Unmarshal(env, &got); err != nil {
		return fmt.Errorf("batch leg: decoding cluster envelope: %w", err)
	}
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("batch leg: %d results, singleton %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if got.Results[i].Status != want.Results[i].Status || !bytes.Equal(got.Results[i].Body, want.Results[i].Body) {
			return fmt.Errorf("batch leg: item %d differs from the single instance:\n got %d %s\nwant %d %s",
				i, got.Results[i].Status, got.Results[i].Body, want.Results[i].Status, want.Results[i].Body)
		}
	}
	if got.Results[1].Status != http.StatusUnprocessableEntity {
		return fmt.Errorf("batch leg: item 1 status %d, want an isolated 422", got.Results[1].Status)
	}
	fmt.Fprintf(stdout, "[ok  ] /v1/batch splits %d items across backends and merges byte-identically, 422 isolated in place\n", len(items))
	return nil
}

// traceLeg verifies the gateway's span trees: every collected trace is
// well-formed, roots are "gateway", and the documented gateway stages
// (route, backend_wait, write; batch adds batch_merge) all appear.
func traceLeg(spanCol *obs.Collector, stdout io.Writer) error {
	// Spans are emitted as the handler epilogue runs, which can trail the
	// response bytes by a scheduler beat; the spans themselves are
	// deterministic, only their arrival needs a grace period. Five posts
	// have gone through the gateway by this leg.
	var all []obs.Span
	deadline := time.Now().Add(5 * time.Second)
	for {
		all = all[:0]
		for _, e := range spanCol.Events() {
			if sp, ok := e.(obs.Span); ok {
				all = append(all, sp)
			}
		}
		if roots := countRoots(all); roots >= 5 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sum := obs.SummarizeSpans(all)
	if !sum.WellFormed() || sum.Roots == 0 {
		return fmt.Errorf("trace leg: %d roots, malformed: %v", sum.Roots, sum.Malformed)
	}
	stages := map[string]bool{}
	for _, sp := range all {
		if sp.ParentID == 0 {
			if sp.Name != "gateway" {
				return fmt.Errorf("trace leg: root span named %q, want gateway", sp.Name)
			}
			continue
		}
		stages[sp.Name] = true
	}
	for _, name := range []string{"route", "backend_wait", "batch_merge", "write"} {
		if !stages[name] {
			var have []string
			for s := range stages {
				have = append(have, s)
			}
			sort.Strings(have)
			return fmt.Errorf("trace leg: stage %s missing (have %v)", name, have)
		}
	}
	fmt.Fprintf(stdout, "[ok  ] %d gateway traces well-formed with route/backend_wait/batch_merge/write stages\n", sum.Roots)
	return nil
}

func countRoots(spans []obs.Span) int {
	n := 0
	for _, sp := range spans {
		if sp.ParentID == 0 {
			n++
		}
	}
	return n
}

func post(url string, body []byte) (respBody []byte, cacheHeader string, err error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	respBody, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, respBody)
	}
	return respBody, resp.Header.Get("X-Schedd-Cache"), nil
}

func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return json.Unmarshal(body, into)
}

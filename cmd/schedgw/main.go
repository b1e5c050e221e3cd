// Command schedgw is the deterministic sharded cluster gateway: an HTTP
// front over N schedd backends that routes every scheduling request to one
// backend by its canonical request key via rendezvous hashing (same key →
// same backend → warm cache), splits /v1/batch bodies per item and merges
// the fan-out byte-identically, and fails over along each key's
// deterministic preference order when backends die.
//
// The headline invariant, machine-checked by the cluster chaos scenarios:
// a cluster of N backends returns byte-identical response bodies to a
// single schedd instance for every request — cache hit, miss, coalesced,
// or failed-over — under fault injection and backend loss. -selfcheck
// implies -local 3 and checks the gateway that run builds over it:
// aggregated health, the pinned Table-1 trace (a miss byte-identical to a
// single instance, then a byte-identical hit) and the span trees it left,
// replays every builtin cluster chaos scenario (internal/chaos) — batch
// split/merge, kill/failover/revive, routing, metrics and per-stage span
// conservation — requiring every invariant to hold, drains, and exits 0.
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
// -trace-out streams the spans as JSONL for cmd/schedtrace. It truncates
// the file at startup: trace sequences restart with the process, so a
// second lifetime appended to the first would repeat its trace IDs. One
// file holds one lifetime's stream. -access-log appends, as its records
// are flat and stand alone.
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
	"net/http/httptest"
	"os"
	"os/signal"
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
		traceOut      = fs.String("trace-out", "", "write gateway spans as JSONL to this path, truncating it (analyze with cmd/schedtrace)")
		selfcheck     = fs.Bool("selfcheck", false, "imply -local 3, verify the pinned Table-1 trace and every cluster chaos scenario end to end, drain, exit")
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
		*local = selfcheckBackends
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
	// stage metrics on the gateway registry; -trace-out streams the spans,
	// and the selfcheck adds an in-memory collector for its trace leg.
	sinks := obs.Multi{obs.NewSpanMetricsObserver(reg, "gateway")}
	var traceSink *obs.JSONL
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		traceSink = obs.NewJSONL(f)
		sinks = append(sinks, traceSink)
	}
	var spanCol *obs.Collector
	if *selfcheck {
		spanCol = &obs.Collector{}
		sinks = append(sinks, spanCol)
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

	if *selfcheck {
		err = selfCheck(gw, spanCol, stdout)
	} else {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err = serve.ServeUntil(ctx, "schedgw", *addr, gw.Handler(), gw, *drainTimeout, stdout)
	}
	if err != nil {
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

// selfcheckBackends is the local cluster size -selfcheck implies.
const selfcheckBackends = 3

// selfCheck fronts the local cluster's gateway, as run built it, with an
// ephemeral port and machine-checks it end to end over real HTTP:
// aggregated health; the pinned Table-1 trace through the cluster,
// byte-identical to a single instance, its repeat a byte-identical hit on
// the owner's warm cache; the span trees those two requests left in
// spanCol; every builtin cluster chaos scenario (internal/chaos), which
// carries the batch split/merge, kill/failover/revive, routing and gateway
// metrics and span checks; and a graceful drain. Only [ok  ] lines are
// printed.
func selfCheck(gw *cluster.Gateway, spanCol *obs.Collector, stdout io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: gw.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "schedgw: selfcheck against %s (%d local backends)\n", base, selfcheckBackends)

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	var health struct {
		Status   string            `json:"status"`
		Backends map[string]string `json:"backends"`
	}
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil || health.Status != "ok" || len(health.Backends) != selfcheckBackends {
		return fmt.Errorf("healthz: %+v (%v), want ok with %d backends", health, err, selfcheckBackends)
	}
	fmt.Fprintf(stdout, "[ok  ] healthz aggregates all %d backends\n", selfcheckBackends)

	// The pinned Table-1 matrix (experiments.MinMinExampleETC) under
	// deterministic Min-Min; schedd -selfcheck pins its trace, so here a
	// single in-process instance's bytes are the golden.
	reqBody, err := json.Marshal(serve.Request{
		ETC:       experiments.MinMinExampleETC().Values(),
		Heuristic: "min-min",
		Ties:      "det",
		Seed:      1,
	})
	if err != nil {
		return err
	}
	ref := serve.NewServer(serve.Options{})
	defer ref.Drain(context.Background())
	rec := httptest.NewRecorder()
	ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/iterate", bytes.NewReader(reqBody)))
	golden := rec.Body.Bytes()
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

	if err := traceLeg(spanCol, stdout); err != nil {
		return err
	}

	// Every builtin cluster chaos scenario, every invariant required to
	// hold.
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

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := gw.Drain(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(stdout, "[ok  ] drained")
	return nil
}

// traceLeg verifies the span trees of the two Table-1 requests: two
// well-formed traces, each rooted at a "gateway" span with the route,
// backend_wait and write stages.
func traceLeg(spanCol *obs.Collector, stdout io.Writer) error {
	// Spans are emitted when the handler finishes, which can trail the
	// response bytes by a scheduler beat. A trace emits its root first and
	// its write stage last, so two write spans mean both trees have landed.
	var all []obs.Span
	deadline := time.Now().Add(5 * time.Second)
	for {
		all = all[:0]
		writes := 0
		for _, e := range spanCol.Events() {
			if sp, ok := e.(obs.Span); ok {
				all = append(all, sp)
				if sp.Name == "write" {
					writes++
				}
			}
		}
		if writes >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sum := obs.SummarizeSpans(all)
	if !sum.WellFormed() || sum.Roots != 2 {
		return fmt.Errorf("trace leg: %d well-formed roots for 2 requests (malformed: %v)", sum.Roots, sum.Malformed)
	}
	for _, root := range all {
		if root.ParentID != 0 {
			continue
		}
		if root.Name != "gateway" {
			return fmt.Errorf("trace leg: root span named %q, want gateway", root.Name)
		}
		stages := map[string]bool{}
		for _, sp := range all {
			if sp.TraceID == root.TraceID && sp.ParentID != 0 {
				stages[sp.Name] = true
			}
		}
		for _, name := range []string{"route", "backend_wait", "write"} {
			if !stages[name] {
				return fmt.Errorf("trace leg: trace %s lacks the %s stage (has %v)", root.TraceID, name, stages)
			}
		}
	}
	fmt.Fprintln(stdout, "[ok  ] 2 gateway traces well-formed with route/backend_wait/write stages")
	return nil
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

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
// drains, and exits 0. It replays no chaos scenario: the cluster
// scenarios' batch split/merge, kill/failover/revive, routing, metrics and
// span conservation are checked by `schedchaos -json`, a leg of its own
// in scripts/check.sh and the one chaos sweep.
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
// -trace-out streams the spans as JSONL for cmd/schedtrace; like
// -access-log it behaves as in schedd (internal/daemon).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() { daemon.Main("schedgw", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedgw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8090", "listen address (host:port; port 0 picks an ephemeral port)")
		backendSpec   = fs.String("backends", "", "comma-separated name=url backend list, e.g. a=http://127.0.0.1:8081,b=http://127.0.0.1:8082")
		local         = fs.Int("local", 0, "spin up this many in-process schedd backends instead of -backends")
		storeDir      = fs.String("store-dir", "", "with -local: give each backend a crash-safe disk result tier under this directory (dir/backend-N)")
		retries       = fs.Int("retries", 2, "per-backend retries before failing over (-1 disables retries)")
		backoff       = fs.Duration("backoff", 5*time.Millisecond, "per-backend base retry backoff (0 = client default)")
		clientTimeout = fs.Duration("client-timeout", 10*time.Second, "per-attempt deadline against a backend")
		threshold     = fs.Int("breaker-threshold", 0, "per-backend circuit-breaker threshold (0 = client default, negative disables)")
		seed          = fs.Uint64("seed", 1, "seed for the per-backend clients' backoff jitter")
		drainTimeout  = fs.Duration("drain-timeout", 10*time.Second, "how long to wait for in-flight requests on shutdown")
		accessLog     = fs.String("access-log", "", "append request_done and gateway_route events as JSONL to this path")
		traceOut      = fs.String("trace-out", "", "write gateway spans as JSONL to this path, truncating it (analyze with cmd/schedtrace)")
		selfcheck     = fs.Bool("selfcheck", false, "imply -local 3, verify the pinned Table-1 trace end to end, drain, exit")
	)
	if err := fs.Parse(args); err != nil {
		return daemon.Usagef("%w", err)
	}
	// Validate flag values before any cluster or listener construction:
	// operator mistakes fail fast with usage (exit 2).
	switch {
	case *local < 0:
		return daemon.Usagef("-local %d: must be >= 0", *local)
	case *retries < -1:
		return daemon.Usagef("-retries %d: must be >= -1 (-1 disables retries)", *retries)
	case *backoff < 0:
		return daemon.Usagef("-backoff %s: must be >= 0 (0 = client default)", *backoff)
	case *drainTimeout <= 0:
		return daemon.Usagef("-drain-timeout %s: must be positive", *drainTimeout)
	case *clientTimeout <= 0:
		return daemon.Usagef("-client-timeout %s: must be positive", *clientTimeout)
	case *storeDir != "" && *local == 0:
		return daemon.Usagef("-store-dir only applies to -local backends (remote backends own their own -store)")
	}
	if *selfcheck {
		if *backendSpec != "" || *local != 0 {
			return daemon.Usagef("-selfcheck runs its own local cluster; drop -backends/-local")
		}
		*local = selfcheckBackends
	}

	var backends []cluster.Backend
	switch {
	case *local > 0 && *backendSpec != "":
		return daemon.Usagef("-local and -backends are mutually exclusive")
	case *local > 0:
		lc, err := cluster.StartLocalStores(*local, serve.Options{}, *storeDir)
		if err != nil {
			return err
		}
		defer lc.Close()
		backends = lc.Backends()
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
		return daemon.Usagef("need -backends, -local or -selfcheck")
	}

	logs, err := daemon.OpenLogs(*accessLog, *traceOut)
	if err != nil {
		return err
	}
	defer logs.Close()
	// The selfcheck's trace leg reads the span trees from a collector.
	var spans *obs.Collector
	if *selfcheck {
		spans = &obs.Collector{}
	}
	reg := obs.NewMetrics()
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
		Observer: logs.Access(),
		Tracer:   logs.Tracer(reg, "gateway", spans),
	})
	if err != nil {
		return err
	}

	if *selfcheck {
		err = daemon.RunCheck("schedgw", gw.Handler(), gw, spans, stdout, selfCheck)
	} else {
		err = daemon.Serve("schedgw", *addr, gw.Handler(), gw, *drainTimeout, stdout)
	}
	if err != nil {
		return err
	}
	return logs.Close()
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

// selfCheck machine-checks the local cluster's gateway, as run built it,
// end to end over c's real HTTP: aggregated health; the pinned Table-1
// trace through the cluster, byte-identical to a single instance, its
// repeat a byte-identical hit on the owner's warm cache; and the span
// trees those two requests left. daemon.RunCheck drains.
func selfCheck(c *daemon.Check) error {
	var health struct {
		Status   string            `json:"status"`
		Backends map[string]string `json:"backends"`
	}
	if _, err := c.Get("/healthz", &health); err != nil || health.Status != "ok" || len(health.Backends) != selfcheckBackends {
		return fmt.Errorf("healthz: %+v (%v), want ok with %d backends", health, err, selfcheckBackends)
	}
	c.OK("healthz aggregates all %d backends", selfcheckBackends)

	// schedd -selfcheck pins the Table-1 trace, so here a single
	// in-process instance's bytes are the golden.
	reqBody := daemon.Table1()
	ref := serve.NewServer(serve.Options{})
	defer ref.Drain(context.Background())
	rec := httptest.NewRecorder()
	ref.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/iterate", bytes.NewReader(reqBody)))
	golden := rec.Body.Bytes()
	first, hdr, err := c.Post("/v1/iterate", reqBody)
	if err != nil {
		return err
	}
	if !bytes.Equal(first, golden) {
		return fmt.Errorf("cluster response differs from the single instance:\n got %s\nwant %s", first, golden)
	}
	if cache := hdr.Get("X-Schedd-Cache"); cache != "miss" {
		return fmt.Errorf("first cluster request X-Schedd-Cache %q, want miss", cache)
	}
	second, hdr, err := c.Post("/v1/iterate", reqBody)
	if err != nil {
		return err
	}
	if cache := hdr.Get("X-Schedd-Cache"); cache != "hit" || !bytes.Equal(second, golden) {
		return fmt.Errorf("second cluster request cache %q (want hit: same key, same backend, warm cache), bytes equal %v", cache, bytes.Equal(second, golden))
	}
	c.OK("pinned Table-1 trace through the cluster is byte-identical to a single instance; repeat routes to the warm cache")

	if err := traceLeg(c); err != nil {
		return err
	}
	return nil
}

// traceLeg verifies the span trees of the two Table-1 requests: two
// well-formed traces, each rooted at a "gateway" span with the route,
// backend_wait and write stages.
func traceLeg(c *daemon.Check) error {
	trees, err := c.Traces(2)
	if err != nil {
		return fmt.Errorf("trace leg: %w", err)
	}
	for _, tr := range trees {
		if tr.Root.Name != "gateway" {
			return fmt.Errorf("trace leg: root span named %q, want gateway", tr.Root.Name)
		}
		for _, name := range []string{"route", "backend_wait", "write"} {
			if !tr.Stages[name] {
				return fmt.Errorf("trace leg: trace %s lacks the %s stage (has %v)", tr.Root.TraceID, name, tr.Stages)
			}
		}
	}
	c.OK("2 gateway traces well-formed with route/backend_wait/write stages")
	return nil
}

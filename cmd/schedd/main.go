// Command schedd is the long-running HTTP scheduling daemon: the
// repository's heuristics and iterative technique served online over JSON,
// with a bounded request queue (429 on overload), a worker pool, an LRU
// result cache and graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	schedd [-addr 127.0.0.1:8080] [-queue 64] [-workers N] [-cache 256]
//	       [-timeout 5s] [-drain-timeout 10s] [-access-log requests.jsonl]
//	       [-trace-out spans.jsonl] [-pprof 127.0.0.1:6060] [-fault-inject spec]
//	       [-store dir]
//	schedd -selfcheck
//
// Endpoints:
//
//	POST /v1/map      one heuristic run        (serve.Request -> serve.MapResponse)
//	POST /v1/iterate  the iterative technique  (serve.Request -> serve.IterateResponse)
//	POST /v1/batch    many map/iterate items   (serve.BatchRequest -> serve.BatchResponse)
//	GET  /healthz     liveness + queue state; 503 while draining
//	GET  /metricz     serve.* metrics snapshot (JSON; ?format=text for text)
//	GET  /statusz     operational summary: counters, cache hit ratio, gauges,
//	                  request latency and per-stage latency quantiles
//
// -store enables the crash-safe disk result tier behind the LRU: computed
// bodies are appended (write-behind) to segment files in the directory, and
// after a restart a request computed in a previous lifetime answers
// byte-identically with X-Schedd-Cache: disk, promoted back into the LRU.
//
// Every scheduling request is traced: a root span plus one span per stage
// (decode, validate, queue_wait, cache_lookup, disk_lookup when -store is
// set, coalesce_wait, compute,
// marshal, write; batch requests add batch_split and batch_merge around the
// per-item fan-out), with IDs derived from the canonical request key and an
// in-process sequence — never from the clock. The trace ID is echoed in the
// X-Schedd-Trace response header and stamped on access-log records; span
// durations feed the /statusz stage quantiles. -trace-out additionally
// writes every span as JSONL (analyze with cmd/schedtrace); it truncates
// and -access-log appends (internal/daemon's Logs says why). -pprof
// serves net/http/pprof on a secondary listener, never on the service
// address.
//
// Responses are deterministic in the request: same matrix, heuristic, tie
// policy and seed give byte-identical bodies, cached or computed. -selfcheck
// starts the daemon on an ephemeral port, replays the pinned Table-1
// Min-Min trace over real HTTP (twice: computed, then cached), verifies
// both bodies bit-for-bit, the metricz hit count, the span trees the
// requests left and /statusz, drains, and exits 0: the smoke test run by
// scripts/check.sh. It replays no chaos scenario; `schedchaos -json`, a
// leg of its own in scripts/check.sh, is the one chaos sweep.
//
// -fault-inject is a STAGING flag: it wraps the whole service in the
// seeded fault injector (spec grammar: seed=N,latency=P:DUR,
// reject=P:CODE[:SECS],drop=P,truncate=P) so clients can be exercised
// against a misbehaving daemon. Never enable it on a production instance.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof listener's DefaultServeMux
	"strings"
	"time"

	"repro/internal/daemon"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() { daemon.Main("schedd", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks an ephemeral port)")
		queue        = fs.Int("queue", 0, "pending-request queue depth before 429 shedding (0 = default)")
		workers      = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cache        = fs.Int("cache", 0, "LRU result-cache entries (0 = default, negative disables)")
		timeout      = fs.Duration("timeout", 0, "per-request deadline cap (0 = default 5s)")
		drainTimeout = fs.Duration("drain-timeout", 10*time.Second, "how long to wait for in-flight requests on shutdown")
		accessLog    = fs.String("access-log", "", "append request_done events as JSONL to this path")
		traceOut     = fs.String("trace-out", "", "write request spans as JSONL to this path, truncating it (analyze with cmd/schedtrace)")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on a secondary listener at this address (e.g. 127.0.0.1:6060); never exposed on -addr")
		faultInject  = fs.String("fault-inject", "", "STAGING ONLY: wrap the service in the seeded fault injector (e.g. seed=7,latency=0.1:5ms,reject=0.2:503:1,drop=0.05,truncate=0.05)")
		storeDir     = fs.String("store", "", "crash-safe disk result tier directory (created if missing); after a restart previously computed bodies answer byte-identically with X-Schedd-Cache: disk")
		storeFaults  = fs.String("store-fault-inject", "", "STAGING ONLY: mount the disk result tier on the seeded fault filesystem (e.g. seed=7,readerr=0.1,writeerr=0.1,syncerr=0.05,shortwrite=0.1,enospc=1048576); requires -store")
		selfcheck    = fs.Bool("selfcheck", false, "serve on an ephemeral port, verify the pinned Table-1 trace end to end, drain, exit")
	)
	if err := fs.Parse(args); err != nil {
		return daemon.Usagef("%w", err)
	}
	// Validate flag values before any construction: a nonsensical value is
	// an operator mistake and must fail fast with usage (exit 2), never
	// reach pool or cache construction as a default-by-accident.
	switch {
	case *queue < 0:
		return daemon.Usagef("-queue %d: must be >= 0 (0 = default)", *queue)
	case *workers < 0:
		return daemon.Usagef("-workers %d: must be >= 0 (0 = GOMAXPROCS)", *workers)
	case *timeout < 0:
		return daemon.Usagef("-timeout %s: must be >= 0 (0 = default)", *timeout)
	case *drainTimeout <= 0:
		return daemon.Usagef("-drain-timeout %s: must be positive", *drainTimeout)
	}
	var faultSpec faults.Spec
	if *faultInject != "" {
		if *selfcheck {
			return daemon.Usagef("-fault-inject cannot be combined with -selfcheck (the selfcheck pins a fault-free Table-1 trace)")
		}
		var err error
		faultSpec, err = faults.Parse(*faultInject)
		if err != nil {
			return daemon.Usagef("-fault-inject: %w", err)
		}
	}
	if *storeDir != "" && *selfcheck {
		return daemon.Usagef("-store cannot be combined with -selfcheck (the selfcheck pins a cold first request, a computed miss)")
	}
	var storeFS store.FS
	if *storeFaults != "" {
		if *storeDir == "" {
			return daemon.Usagef("-store-fault-inject requires -store (it faults the disk tier's filesystem)")
		}
		spec, err := store.ParseFaultSpec(*storeFaults)
		if err != nil {
			return daemon.Usagef("-store-fault-inject: %w", err)
		}
		storeFS = store.NewFaultFS(nil, spec)
	}
	opts := serve.Options{
		QueueDepth:     *queue,
		Workers:        *workers,
		CacheEntries:   *cache,
		RequestTimeout: *timeout,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{FS: storeFS})
		if err != nil {
			return fmt.Errorf("-store: %w", err)
		}
		// Deferred close runs after the server has drained, so the
		// write-behind queue is already flushed into the store.
		defer st.Close()
		opts.Store = st
	}
	logs, err := daemon.OpenLogs(*accessLog, *traceOut)
	if err != nil {
		return err
	}
	defer logs.Close()
	opts.Observer = logs.Access()
	// The selfcheck's trace leg reads the span trees from a collector.
	var spans *obs.Collector
	if *selfcheck {
		spans = &obs.Collector{}
	}
	opts.Metrics = obs.NewMetrics()
	opts.Tracer = logs.Tracer(opts.Metrics, "serve", spans)
	srv := serve.NewServer(opts)

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof: %w", err)
		}
		defer pln.Close()
		fmt.Fprintf(stdout, "schedd: pprof on http://%s/debug/pprof/\n", pln.Addr())
		go http.Serve(pln, nil) // DefaultServeMux carries only the pprof handlers
	}

	if *selfcheck {
		err = daemon.RunCheck("schedd", srv.Handler(), srv, spans, stdout, selfCheck)
	} else {
		handler := http.Handler(srv.Handler())
		if *faultInject != "" {
			handler = faults.New(faultSpec, handler, srv.Metrics())
			fmt.Fprintf(stdout, "schedd: FAULT INJECTION ACTIVE (%s)\n", faultSpec)
		}
		err = daemon.Serve("schedd", *addr, handler, srv, *drainTimeout, stdout)
	}
	if err != nil {
		return err
	}
	return logs.Close()
}

// selfCheck exercises the whole service end to end over c's real TCP
// listener: /healthz, the pinned Table-1 Min-Min matrix through
// /v1/iterate (computed then cached, byte-identical), /metricz and the
// tracing path; daemon.RunCheck drains. Everything checked is
// deterministic.
func selfCheck(c *daemon.Check) error {
	if _, err := c.Get("/healthz", nil); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	c.OK("healthz")

	// By the invariance theorem the Table-1 trace is final == original:
	// makespan 5, completions (5, 4, 2), every machine unchanged.
	reqBody := daemon.Table1()
	first, hdr, err := c.Post("/v1/iterate", reqBody)
	if err != nil {
		return err
	}
	var ir serve.IterateResponse
	if err := json.Unmarshal(first, &ir); err != nil {
		return fmt.Errorf("decoding /v1/iterate response: %w", err)
	}
	switch {
	case ir.OriginalMakespan != 5 || ir.FinalMakespan != 5:
		return fmt.Errorf("table-1 makespan %g -> %g, want 5 -> 5", ir.OriginalMakespan, ir.FinalMakespan)
	case ir.MakespanIncreased:
		return fmt.Errorf("table-1 trace reports a makespan increase")
	case len(ir.FinalCompletion) != 3 || ir.FinalCompletion[0] != 5 || ir.FinalCompletion[1] != 4 || ir.FinalCompletion[2] != 2:
		return fmt.Errorf("table-1 final completions %v, want [5 4 2]", ir.FinalCompletion)
	case len(ir.Iterations) != 3:
		return fmt.Errorf("table-1 trace has %d iterations, want 3", len(ir.Iterations))
	case strings.Join(ir.Outcomes, ",") != "unchanged,unchanged,unchanged":
		return fmt.Errorf("table-1 outcomes %v, want all unchanged (invariance theorem)", ir.Outcomes)
	case hdr.Get("X-Schedd-Cache") != "miss":
		return fmt.Errorf("first request X-Schedd-Cache %q, want miss", hdr.Get("X-Schedd-Cache"))
	}
	c.OK("/v1/iterate reproduces the pinned Table-1 trace")

	second, hdr, err := c.Post("/v1/iterate", reqBody)
	if err != nil {
		return err
	}
	if hdr.Get("X-Schedd-Cache") != "hit" {
		return fmt.Errorf("second request X-Schedd-Cache %q, want hit", hdr.Get("X-Schedd-Cache"))
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("cached body differs from computed body")
	}
	c.OK("cache hit is byte-identical to the computed response")

	var snap obs.Snapshot
	if _, err := c.Get("/metricz", &snap); err != nil {
		return err
	}
	hits := int64(-1)
	for _, ctr := range snap.Counters {
		if ctr.Name == "serve.cache_hits" {
			hits = ctr.Value
		}
	}
	if hits != 1 {
		return fmt.Errorf("metricz serve.cache_hits = %d, want 1", hits)
	}
	c.OK("metricz reports the cache hit")

	if err := traceLeg(c, reqBody); err != nil {
		return err
	}
	return nil
}

// traceLeg verifies the tracing path end to end: the pinned Table-1 request
// answers with an X-Schedd-Trace header naming one of the collected roots,
// every traced request so far produced exactly one well-formed span tree
// with the documented stages, all three share the deterministic key half of
// the trace ID, and /statusz folds the span durations into per-stage
// quantiles.
func traceLeg(c *daemon.Check, reqBody []byte) error {
	_, hdr, err := c.Post("/v1/iterate", reqBody)
	if err != nil {
		return fmt.Errorf("trace leg: %w", err)
	}
	headerID := hdr.Get(serve.TraceHeader)
	if headerID == "" {
		return fmt.Errorf("trace leg: no %s header", serve.TraceHeader)
	}

	trees, err := c.Traces(3)
	if err != nil {
		return fmt.Errorf("trace leg: %w", err)
	}
	keyHalves := map[string]bool{}
	headerMatched := false
	var missStages, hitStages map[string]bool
	for _, tr := range trees {
		keyHalves[strings.SplitN(tr.Root.TraceID, "-", 2)[0]] = true
		if tr.Root.TraceID == headerID {
			headerMatched = true
		}
		if tr.Root.Cache == "miss" {
			missStages = tr.Stages
		} else {
			hitStages = tr.Stages
		}
	}
	if !headerMatched {
		return fmt.Errorf("trace leg: header trace ID %q matches no collected root", headerID)
	}
	if len(keyHalves) != 1 {
		return fmt.Errorf("trace leg: trace-ID key halves %v, want one shared half for one pinned request", keyHalves)
	}
	for _, name := range []string{"decode", "validate", "queue_wait", "cache_lookup", "compute", "marshal", "write"} {
		if !missStages[name] {
			return fmt.Errorf("trace leg: miss trace lacks the %s stage (has %v)", name, missStages)
		}
	}
	if hitStages == nil || hitStages["compute"] || !hitStages["cache_lookup"] || !hitStages["write"] {
		return fmt.Errorf("trace leg: hit trace stages wrong: %v", hitStages)
	}
	c.OK("every request traced: well-formed span trees, stable key half, header matches a root")

	var st struct {
		RequestsTotal int64   `json:"requests_total"`
		CacheHits     int64   `json:"cache_hits"`
		CacheHitRatio float64 `json:"cache_hit_ratio"`
		LatencyMS     struct {
			Count int `json:"count"`
		} `json:"latency_ms"`
		Stages []struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"stages"`
	}
	stBody, err := c.Get("/statusz", &st)
	if err != nil {
		return err
	}
	stages := map[string]int{}
	for _, row := range st.Stages {
		stages[row.Name] = row.Count
	}
	switch {
	case st.RequestsTotal != 3 || st.CacheHits != 2:
		return fmt.Errorf("statusz requests/hits = %d/%d, want 3/2: %s", st.RequestsTotal, st.CacheHits, stBody)
	case st.CacheHitRatio < 0.66 || st.CacheHitRatio > 0.67:
		return fmt.Errorf("statusz cache_hit_ratio = %g, want 2/3: %s", st.CacheHitRatio, stBody)
	case st.LatencyMS.Count != 3:
		return fmt.Errorf("statusz latency_ms count = %d, want 3: %s", st.LatencyMS.Count, stBody)
	case stages["compute"] != 1 || stages["cache_lookup"] != 3 || stages["write"] != 3:
		return fmt.Errorf("statusz stage counts %v, want compute=1 cache_lookup=3 write=3: %s", stages, stBody)
	}
	c.OK("statusz folds the spans into per-stage latency quantiles")
	return nil
}

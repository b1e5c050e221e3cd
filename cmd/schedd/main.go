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
// appends every span as JSONL (analyze with cmd/schedtrace). -pprof serves
// net/http/pprof on a secondary listener, never on the service address.
//
// Responses are deterministic in the request: same matrix, heuristic, tie
// policy and seed give byte-identical bodies, cached or computed. -selfcheck
// starts the daemon on an ephemeral port, replays the pinned Table-1
// Min-Min trace over real HTTP (twice: computed, then cached), verifies
// both bodies bit-for-bit, drives the same item through POST /v1/batch
// (cached item bytes, isolated per-item 422, byte-identical envelope
// replay), then replays it through the deterministic fault
// injector (internal/faults) with the resilient client (internal/client),
// verifying recovery and byte-identity under injected 503s, dropped
// connections and truncated bodies, drives a deliberate worker panic and
// verifies isolation (structured 500, serve.panics_total, cache intact),
// replays a builtin chaos scenario (internal/chaos) requiring every
// invariant to hold, proves the disk result tier across a kill/restart
// (byte-identical X-Schedd-Cache: disk answer, then promotion to a memory
// hit), drains, and exits 0 — the smoke test run by
// scripts/check.sh.
//
// -fault-inject is a STAGING flag: it wraps the whole service in the
// seeded fault injector (spec grammar: seed=N,latency=P:DUR,
// reject=P:CODE[:SECS],drop=P,truncate=P) so clients can be exercised
// against a misbehaving daemon. Never enable it on a production instance.
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
	_ "net/http/pprof" // profiling endpoints on the -pprof listener's DefaultServeMux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schedd:", err)
		os.Exit(exitCode(err))
	}
}

// usageError marks a command-line mistake: bad flag syntax or a nonsensical
// value. main exits 2 for these (usage), 1 for runtime failures, so wrappers
// and scripts can tell operator errors from daemon errors.
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
		traceOut     = fs.String("trace-out", "", "append request spans as JSONL to this path (analyze with cmd/schedtrace)")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof on a secondary listener at this address (e.g. 127.0.0.1:6060); never exposed on -addr")
		faultInject  = fs.String("fault-inject", "", "STAGING ONLY: wrap the service in the seeded fault injector (e.g. seed=7,latency=0.1:5ms,reject=0.2:503:1,drop=0.05,truncate=0.05)")
		storeDir     = fs.String("store", "", "crash-safe disk result tier directory (created if missing); after a restart previously computed bodies answer byte-identically with X-Schedd-Cache: disk")
		storeFaults  = fs.String("store-fault-inject", "", "STAGING ONLY: mount the disk result tier on the seeded fault filesystem (e.g. seed=7,readerr=0.1,writeerr=0.1,syncerr=0.05,shortwrite=0.1,enospc=1048576); requires -store")
		selfcheck    = fs.Bool("selfcheck", false, "serve on an ephemeral port, verify the pinned Table-1 trace end to end, drain, exit")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	// Validate flag values before any construction: a nonsensical value is
	// an operator mistake and must fail fast with usage (exit 2), never
	// reach pool or cache construction as a default-by-accident.
	switch {
	case *queue < 0:
		return usagef("-queue %d: must be >= 0 (0 = default)", *queue)
	case *workers < 0:
		return usagef("-workers %d: must be >= 0 (0 = GOMAXPROCS)", *workers)
	case *timeout < 0:
		return usagef("-timeout %s: must be >= 0 (0 = default)", *timeout)
	case *drainTimeout <= 0:
		return usagef("-drain-timeout %s: must be positive", *drainTimeout)
	}
	var faultSpec faults.Spec
	if *faultInject != "" {
		if *selfcheck {
			return usagef("-fault-inject cannot be combined with -selfcheck (the selfcheck runs its own pinned fault leg)")
		}
		var err error
		faultSpec, err = faults.Parse(*faultInject)
		if err != nil {
			return usagef("-fault-inject: %w", err)
		}
	}
	if *storeDir != "" && *selfcheck {
		return usagef("-store cannot be combined with -selfcheck (the selfcheck runs its own restart-recovery leg on a temporary directory)")
	}
	var storeFS store.FS
	if *storeFaults != "" {
		if *storeDir == "" {
			return usagef("-store-fault-inject requires -store (it faults the disk tier's filesystem)")
		}
		spec, err := store.ParseFaultSpec(*storeFaults)
		if err != nil {
			return usagef("-store-fault-inject: %w", err)
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
		// Deferred close runs after serveForever has drained, so the
		// write-behind queue is already flushed into the store.
		defer st.Close()
		opts.Store = st
	}
	var logSink *obs.JSONL
	if *accessLog != "" {
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		logSink = obs.NewJSONL(f)
		opts.Observer = logSink
	}
	// Tracing is always on in the daemon: span durations feed the /statusz
	// stage quantiles through a span-metrics observer on the server's own
	// registry. -trace-out additionally streams every span as JSONL, and the
	// selfcheck adds an in-memory collector so its trace leg can verify the
	// span trees it produced. Span IDs derive from request keys and a
	// sequence, so none of this perturbs response bytes.
	reg := obs.NewMetrics()
	opts.Metrics = reg
	sinks := obs.Multi{obs.NewSpanMetricsObserver(reg, "serve")}
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
	var spanCol *obs.Collector
	if *selfcheck {
		spanCol = &obs.Collector{}
		sinks = append(sinks, spanCol)
	}
	opts.Tracer = obs.NewTracer(sinks)
	if *selfcheck {
		// The selfcheck's panic leg drives a deliberate panic through the
		// worker pool to prove isolation; the trigger fires only on the chaos
		// sentinel seed, which scenario validation refuses for real workloads.
		opts.PanicTrigger = func(seed uint64) {
			if seed == chaos.PanicSeed {
				panic("selfcheck: deliberate panic")
			}
		}
	}
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

	var err error
	if *selfcheck {
		err = selfCheck(srv, spanCol, opts.Tracer, stdout)
	} else {
		handler := http.Handler(srv.Handler())
		if *faultInject != "" {
			handler = faults.New(faultSpec, handler, srv.Metrics())
			fmt.Fprintf(stdout, "schedd: FAULT INJECTION ACTIVE (%s)\n", faultSpec)
		}
		err = serveForever(srv, handler, *addr, *drainTimeout, stdout)
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

// serveForever listens on addr and serves until SIGTERM/SIGINT, then drains:
// the listener stops accepting, in-flight requests finish (bounded by
// drainTimeout), the worker pool exits.
func serveForever(srv *serve.Server, handler http.Handler, addr string, drainTimeout time.Duration, stdout io.Writer) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "schedd: listening on http://%s (%s)\n", ln.Addr(), srv)
	hs := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "schedd: signal received, draining")
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.Drain(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(stdout, "schedd: drained")
	return nil
}

// selfCheck exercises the whole service end to end over a real TCP
// listener: the pinned Table-1 Min-Min matrix through /v1/iterate (computed
// then cached, byte-identical), /healthz, /metricz, the tracing path
// (spans land in spanCol), and a graceful drain. Everything checked is
// deterministic; only [ok  ] lines are printed.
func selfCheck(srv *serve.Server, spanCol *obs.Collector, tracer *obs.Tracer, stdout io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "schedd: selfcheck against %s\n", base)

	if err := expectStatus(http.Get(base + "/healthz")); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	fmt.Fprintln(stdout, "[ok  ] healthz")

	// The pinned Table-1 matrix (experiments.MinMinExampleETC): min-min
	// under deterministic ties gives machine completions (5, 4, 2), and by
	// the paper's invariance theorem the iterative technique changes
	// nothing: final == original, makespan 5, every machine unchanged.
	reqBody, err := json.Marshal(serve.Request{
		ETC:       experiments.MinMinExampleETC().Values(),
		Heuristic: "min-min",
		Ties:      "det",
		Seed:      1,
	})
	if err != nil {
		return err
	}
	first, firstHdr, err := postIterate(base, reqBody)
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
	case firstHdr != "miss":
		return fmt.Errorf("first request X-Schedd-Cache %q, want miss", firstHdr)
	}
	fmt.Fprintln(stdout, "[ok  ] /v1/iterate reproduces the pinned Table-1 trace")

	second, secondHdr, err := postIterate(base, reqBody)
	if err != nil {
		return err
	}
	if secondHdr != "hit" {
		return fmt.Errorf("second request X-Schedd-Cache %q, want hit", secondHdr)
	}
	if !bytes.Equal(first, second) {
		return fmt.Errorf("cached body differs from computed body")
	}
	fmt.Fprintln(stdout, "[ok  ] cache hit is byte-identical to the computed response")

	resp, err := http.Get(base + "/metricz")
	if err != nil {
		return err
	}
	snapBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(snapBody, &snap); err != nil {
		return fmt.Errorf("decoding /metricz: %w", err)
	}
	hits := int64(-1)
	for _, c := range snap.Counters {
		if c.Name == "serve.cache_hits" {
			hits = c.Value
		}
	}
	if hits != 1 {
		return fmt.Errorf("metricz serve.cache_hits = %d, want 1", hits)
	}
	fmt.Fprintln(stdout, "[ok  ] metricz reports the cache hit")

	if err := traceLeg(base, spanCol, reqBody, stdout); err != nil {
		return err
	}
	if err := batchLeg(base, first, stdout); err != nil {
		return err
	}
	if err := faultLeg(srv, base, first, reqBody, stdout); err != nil {
		return err
	}
	if err := panicLeg(base, first, reqBody, stdout); err != nil {
		return err
	}
	if err := chaosLeg(stdout); err != nil {
		return err
	}
	if err := storeLeg(tracer, stdout); err != nil {
		return err
	}
	if err := degradeLeg(tracer, stdout); err != nil {
		return err
	}

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := srv.Drain(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(stdout, "[ok  ] drained")
	return nil
}

// traceLeg verifies the tracing path end to end: the pinned Table-1 request
// answers with an X-Schedd-Trace header naming one of the collected roots,
// every traced request so far produced exactly one well-formed span tree
// with the documented stages, all three share the deterministic key half of
// the trace ID, and /statusz folds the span durations into per-stage
// quantiles.
func traceLeg(base string, spanCol *obs.Collector, reqBody []byte, stdout io.Writer) error {
	resp, err := http.Post(base+"/v1/iterate", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	headerID := resp.Header.Get(serve.TraceHeader)
	if resp.StatusCode != http.StatusOK || headerID == "" {
		return fmt.Errorf("trace leg: status %d, %s header %q", resp.StatusCode, serve.TraceHeader, headerID)
	}

	// Spans are emitted when the handler finishes, which can trail the
	// response bytes by a scheduler beat. A trace emits its root first and
	// its "write" stage last, so three write spans mean three complete
	// trees have landed. The spans themselves are deterministic — only
	// their arrival in the collector needs a grace period.
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
		if writes >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	sum := obs.SummarizeSpans(all)
	if !sum.WellFormed() || sum.Roots != 3 {
		return fmt.Errorf("trace leg: %d well-formed roots for 3 requests (malformed: %v)", sum.Roots, sum.Malformed)
	}

	keyHalves := map[string]bool{}
	headerMatched := false
	var missStages, hitStages map[string]bool
	for _, sp := range all {
		if sp.ParentID != 0 {
			continue
		}
		keyHalves[strings.SplitN(sp.TraceID, "-", 2)[0]] = true
		if sp.TraceID == headerID {
			headerMatched = true
		}
		kids := map[string]bool{}
		for _, k := range all {
			if k.TraceID == sp.TraceID && k.ParentID != 0 {
				kids[k.Name] = true
			}
		}
		if sp.Cache == "miss" {
			missStages = kids
		} else {
			hitStages = kids
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
	fmt.Fprintln(stdout, "[ok  ] every request traced: well-formed span trees, stable key half, header matches a root")

	resp, err = http.Get(base + "/statusz")
	if err != nil {
		return err
	}
	stBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
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
	if err := json.Unmarshal(stBody, &st); err != nil {
		return fmt.Errorf("decoding /statusz: %w (%s)", err, stBody)
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
	fmt.Fprintln(stdout, "[ok  ] statusz folds the spans into per-stage latency quantiles")
	return nil
}

// batchLeg verifies POST /v1/batch end to end: a mixed batch serves the
// pinned Table-1 item from cache (body byte-identical to the singleton
// response minus its trailing newline) while isolating a bad neighbor's 422
// inside the envelope, an identical single-item batch replays
// byte-identically (the whole-envelope cache returning exactly what
// assembly produced), and the batch counters conserve.
func batchLeg(base string, want []byte, stdout io.Writer) error {
	req := serve.Request{
		ETC:       experiments.MinMinExampleETC().Values(),
		Heuristic: "min-min",
		Ties:      "det",
		Seed:      1,
	}
	bad := req
	bad.Heuristic = "nope"
	mixed, err := json.Marshal(serve.BatchRequest{Items: []serve.BatchItem{
		{Endpoint: "iterate", Request: req},
		{Endpoint: "iterate", Request: bad},
	}})
	if err != nil {
		return err
	}
	env, err := postBatch(base, mixed)
	if err != nil {
		return err
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(env, &br); err != nil {
		return fmt.Errorf("batch leg: decoding envelope: %w (%s)", err, env)
	}
	wantItem := bytes.TrimSuffix(want, []byte("\n"))
	if len(br.Results) != 2 {
		return fmt.Errorf("batch leg: %d results, want 2", len(br.Results))
	}
	if br.Results[0].Status != http.StatusOK || !bytes.Equal(br.Results[0].Body, wantItem) || br.Results[0].Cache != "hit" {
		return fmt.Errorf("batch leg: item 0 status %d cache %q, want the cached Table-1 bytes", br.Results[0].Status, br.Results[0].Cache)
	}
	var er serve.ErrorResponse
	if br.Results[1].Status != http.StatusUnprocessableEntity ||
		json.Unmarshal(br.Results[1].Body, &er) != nil || er.Error.Code != serve.CodeValidationFailed {
		return fmt.Errorf("batch leg: item 1 status %d body %s, want an isolated 422 validation_failed", br.Results[1].Status, br.Results[1].Body)
	}
	fmt.Fprintln(stdout, "[ok  ] /v1/batch serves the pinned item from cache and isolates a bad neighbor's 422")

	ident, err := json.Marshal(serve.BatchRequest{Items: []serve.BatchItem{{Endpoint: "iterate", Request: req}}})
	if err != nil {
		return err
	}
	envA, err := postBatch(base, ident)
	if err != nil {
		return err
	}
	envB, err := postBatch(base, ident)
	if err != nil {
		return err
	}
	if !bytes.Equal(envA, envB) {
		return fmt.Errorf("batch leg: identical batch replay differs:\n%s\n%s", envA, envB)
	}
	counters, err := counterSnapshot(base)
	if err != nil {
		return err
	}
	if counters["serve.batch_requests_total"] != 3 || counters["serve.batch_items_total"] != 4 {
		return fmt.Errorf("batch leg: batch counters %d requests / %d items, want 3/4",
			counters["serve.batch_requests_total"], counters["serve.batch_items_total"])
	}
	fmt.Fprintln(stdout, "[ok  ] identical batch replay is byte-identical; batch counters conserve")
	return nil
}

func postBatch(base string, body []byte) ([]byte, error) {
	resp, err := http.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/batch: status %d: %s", resp.StatusCode, respBody)
	}
	return respBody, nil
}

// faultLeg replays the pinned Table-1 request through the deterministic
// fault injector with the resilient client: injected 503s, dropped
// connections and truncated bodies must cost retries, never correctness —
// every recovered body is byte-identical to the cleanly computed one.
// Injector, server and client share one metrics registry, so the clean
// listener's /metricz (cleanBase) also proves faults were actually injected
// and retries actually taken.
func faultLeg(srv *serve.Server, cleanBase string, want, reqBody []byte, stdout io.Writer) error {
	spec, err := faults.Parse("seed=5,latency=0.2:2ms,reject=0.25:503:1,drop=0.2,truncate=0.2")
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: faults.New(spec, srv.Handler(), srv.Metrics())}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	cl := client.New(client.Options{
		MaxRetries:  12,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  5 * time.Millisecond, // caps the injector's Retry-After: 1s too
		Timeout:     2 * time.Second,
		Seed:        1,
		// The injector never yields 12 consecutive faults here, but keep the
		// breaker from fast-failing a replay mid-leg regardless.
		BreakerThreshold: 1000,
		Metrics:          srv.Metrics(),
	})
	const replays = 16
	for i := 1; i <= replays; i++ {
		resp, err := cl.Post(context.Background(), base+"/v1/iterate", reqBody)
		if err != nil {
			return fmt.Errorf("fault leg replay %d/%d: %w", i, replays, err)
		}
		if !bytes.Equal(resp.Body, want) {
			return fmt.Errorf("fault leg replay %d/%d: recovered body differs from the clean response", i, replays)
		}
	}
	fmt.Fprintf(stdout, "[ok  ] %d fault-injected replays recovered byte-identical responses\n", replays)

	counters, err := counterSnapshot(cleanBase)
	if err != nil {
		return err
	}
	for _, name := range []string{
		"faults.injected_total",
		"faults.reject_total",
		"faults.drop_total",
		"faults.truncate_total",
		"client.retries_total",
	} {
		if counters[name] <= 0 {
			return fmt.Errorf("/metricz %s = %d, want > 0 (fault leg did not exercise it)", name, counters[name])
		}
	}
	fmt.Fprintf(stdout, "[ok  ] metricz reports %d injected faults (%d rejected, %d dropped, %d truncated) and %d client retries\n",
		counters["faults.injected_total"], counters["faults.reject_total"],
		counters["faults.drop_total"], counters["faults.truncate_total"],
		counters["client.retries_total"])

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("fault leg shutdown: %w", err)
	}
	return nil
}

// panicLeg proves worker-level panic isolation on the live daemon: a
// request carrying the chaos sentinel seed panics inside the worker, the
// client receives a structured 500 with code "panic" (and no panic detail),
// serve.panics_total increments, and the daemon keeps serving the pinned
// Table-1 request byte-identically from cache. Plain http.Post keeps the
// fault leg's seeded decision streams untouched.
func panicLeg(base string, want, reqBody []byte, stdout io.Writer) error {
	panicBody, err := json.Marshal(serve.Request{
		ETC:       experiments.MinMinExampleETC().Values(),
		Heuristic: "min-min",
		Ties:      "det",
		Seed:      chaos.PanicSeed,
	})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/v1/iterate", "application/json", bytes.NewReader(panicBody))
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusInternalServerError {
		return fmt.Errorf("panic leg: status %d, want 500: %s", resp.StatusCode, body)
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		return fmt.Errorf("panic leg: decoding error envelope: %w (%s)", err, body)
	}
	if er.Error.Code != serve.CodePanic {
		return fmt.Errorf("panic leg: error code %q, want %q", er.Error.Code, serve.CodePanic)
	}
	if strings.Contains(er.Error.Message, "deliberate") {
		return fmt.Errorf("panic leg: panic detail leaked into the response: %q", er.Error.Message)
	}
	counters, err := counterSnapshot(base)
	if err != nil {
		return err
	}
	if counters["serve.panics_total"] != 1 {
		return fmt.Errorf("panic leg: serve.panics_total = %d, want 1", counters["serve.panics_total"])
	}
	after, hdr, err := postIterate(base, reqBody)
	if err != nil {
		return fmt.Errorf("panic leg: pinned request after panic: %w", err)
	}
	if hdr != "hit" {
		return fmt.Errorf("panic leg: post-panic X-Schedd-Cache %q, want hit", hdr)
	}
	if !bytes.Equal(after, want) {
		return fmt.Errorf("panic leg: post-panic cached body differs from the clean response")
	}
	fmt.Fprintln(stdout, "[ok  ] deliberate panic isolated: structured 500, panics_total=1, cache intact")
	return nil
}

// chaosLeg replays one builtin chaos scenario in-process and requires every
// harness invariant to hold — the end-to-end hardening smoke.
func chaosLeg(stdout io.Writer) error {
	sc, err := chaos.ByName("breaker-trip")
	if err != nil {
		return err
	}
	rep, err := chaos.Run(sc)
	if err == nil {
		err = rep.Err()
	}
	if err != nil {
		return fmt.Errorf("chaos leg: %w", err)
	}
	fmt.Fprintf(stdout, "[ok  ] chaos scenario %s: %d invariants hold\n", rep.Scenario, len(rep.Invariants))
	return nil
}

// storeLeg proves the crash-safe disk result tier across a kill/restart: a
// dedicated server over a fresh -store directory computes the pinned
// Table-1 body, shuts down (drain flushes the write-behind queue, the store
// closes), and a restarted server over the same directory answers the same
// request byte-identically with X-Schedd-Cache: disk, then serves the
// repeat as a memory hit (promotion). Both servers share the selfcheck's
// tracer, so the restart flow's disk_lookup spans land in -trace-out
// streams and the pinned schedtrace golden.
func storeLeg(tracer *obs.Tracer, stdout io.Writer) error {
	dir, err := os.MkdirTemp("", "schedd-selfcheck-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reqBody, err := json.Marshal(serve.Request{
		ETC:       experiments.MinMinExampleETC().Values(),
		Heuristic: "min-min",
		Ties:      "det",
		Seed:      1,
	})
	if err != nil {
		return err
	}

	// runServer is one daemon lifetime over the shared store directory:
	// open the store, serve f's requests, shut down, drain (flushing disk
	// writes), close the store.
	runServer := func(f func(base string) error) error {
		st, err := store.Open(dir, store.Options{})
		if err != nil {
			return fmt.Errorf("store leg: %w", err)
		}
		srv := serve.NewServer(serve.Options{Store: st, Tracer: tracer})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.Close()
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		ferr := f("http://" + ln.Addr().String())
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil && ferr == nil {
			ferr = fmt.Errorf("store leg shutdown: %w", err)
		}
		if err := srv.Drain(sctx); err != nil && ferr == nil {
			ferr = fmt.Errorf("store leg drain: %w", err)
		}
		if err := st.Close(); err != nil && ferr == nil {
			ferr = fmt.Errorf("store leg: %w", err)
		}
		return ferr
	}

	var first []byte
	if err := runServer(func(base string) error {
		body, hdr, err := postIterate(base, reqBody)
		if err != nil {
			return fmt.Errorf("store leg: %w", err)
		}
		if hdr != "miss" {
			return fmt.Errorf("store leg: first request X-Schedd-Cache %q, want miss", hdr)
		}
		first = body
		return nil
	}); err != nil {
		return err
	}
	if err := runServer(func(base string) error {
		second, hdr, err := postIterate(base, reqBody)
		if err != nil {
			return fmt.Errorf("store leg restart: %w", err)
		}
		if hdr != "disk" {
			return fmt.Errorf("store leg: post-restart X-Schedd-Cache %q, want disk", hdr)
		}
		if !bytes.Equal(second, first) {
			return fmt.Errorf("store leg: disk hit differs from the pre-restart body")
		}
		third, hdr, err := postIterate(base, reqBody)
		if err != nil {
			return fmt.Errorf("store leg repeat: %w", err)
		}
		if hdr != "hit" {
			return fmt.Errorf("store leg: promoted repeat X-Schedd-Cache %q, want hit", hdr)
		}
		if !bytes.Equal(third, first) {
			return fmt.Errorf("store leg: promoted hit differs from the pre-restart body")
		}
		return nil
	}); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "[ok  ] restart recovery: disk hit byte-identical across kill/restart, then promoted to a memory hit")
	return nil
}

// degradeLeg proves graceful degradation end to end over HTTP: the disk
// tier sits on a fault filesystem that fails every read while enabled, and
// the daemon must ride the whole health arc — healthy → offline (read
// errors) → gated consults → read-probe recovery → degraded → write-probe
// recovery → healthy — without one client-visible error or changed byte.
// The LRU is disabled so every request exercises the disk path.
func degradeLeg(tracer *obs.Tracer, stdout io.Writer) error {
	dir, err := os.MkdirTemp("", "schedd-selfcheck-degrade-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// waitFor synchronizes the check with the asynchronous write-behind
	// goroutine; wall clock shapes only when the leg looks, never behavior.
	waitFor := func(what string, cond func() bool) error {
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				return fmt.Errorf("degrade leg: timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	}
	body := func(seed uint64) ([]byte, error) {
		return json.Marshal(serve.Request{
			ETC:       experiments.MinMinExampleETC().Values(),
			Heuristic: "min-min",
			Ties:      "det",
			Seed:      seed,
		})
	}
	warmBody, err := body(1)
	if err != nil {
		return err
	}

	ffs := store.NewFaultFS(nil, store.FaultSpec{Seed: 1, ReadErrP: 1})
	ffs.SetEnabled(false)
	st, err := store.Open(dir, store.Options{FS: ffs, ProbeAfter: 2})
	if err != nil {
		return fmt.Errorf("degrade leg: %w", err)
	}
	srv := serve.NewServer(serve.Options{Store: st, CacheEntries: -1, Tracer: tracer})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()

	legErr := func() error {
		// Healthy: compute, flush behind, serve from disk.
		first, hdr, err := postIterate(base, warmBody)
		if err != nil {
			return fmt.Errorf("degrade leg: %w", err)
		}
		if hdr != "miss" {
			return fmt.Errorf("degrade leg: warm X-Schedd-Cache %q, want miss", hdr)
		}
		if err := waitFor("write-behind flush", func() bool { return st.Len() == 1 }); err != nil {
			return err
		}
		if _, hdr, err = postIterate(base, warmBody); err != nil {
			return fmt.Errorf("degrade leg: %w", err)
		} else if hdr != "disk" {
			return fmt.Errorf("degrade leg: healthy repeat X-Schedd-Cache %q, want disk", hdr)
		}

		// Storm: the read fails, the response falls through to compute
		// byte-identically, the tier goes offline.
		ffs.SetEnabled(true)
		b, hdr, err := postIterate(base, warmBody)
		if err != nil {
			return fmt.Errorf("degrade leg: %w", err)
		}
		if hdr != "miss" || !bytes.Equal(b, first) {
			return fmt.Errorf("degrade leg: faulted post cache %q, want byte-identical miss fallthrough", hdr)
		}
		if got := st.HealthState(); got != "offline" {
			return fmt.Errorf("degrade leg: health %q after read storm, want offline", got)
		}
		// Offline: the next consult is gated — no disk I/O at all.
		if b, _, err = postIterate(base, warmBody); err != nil {
			return fmt.Errorf("degrade leg: %w", err)
		} else if !bytes.Equal(b, first) {
			return fmt.Errorf("degrade leg: gated post not byte-identical")
		}

		// Repaired: the next consult is the read probe (ProbeAfter=2) and
		// serves the stored body; offline → degraded.
		ffs.SetEnabled(false)
		if _, hdr, err = postIterate(base, warmBody); err != nil {
			return fmt.Errorf("degrade leg: %w", err)
		} else if hdr != "disk" {
			return fmt.Errorf("degrade leg: probe post X-Schedd-Cache %q, want disk", hdr)
		}
		if got := st.HealthState(); got != "degraded" {
			return fmt.Errorf("degrade leg: health %q after read probe, want degraded (writes unproven)", got)
		}

		// Degraded: fresh bodies drive the write-probe ladder; the first
		// append is dropped (counted) and the probe append recovers the tier.
		for seed := uint64(2); seed <= 3; seed++ {
			fresh, err := body(seed)
			if err != nil {
				return err
			}
			if _, _, err := postIterate(base, fresh); err != nil {
				return fmt.Errorf("degrade leg: %w", err)
			}
		}
		if err := waitFor("write-probe recovery", func() bool { return st.Health() == store.Healthy }); err != nil {
			return err
		}

		counters, err := counterSnapshot(base)
		if err != nil {
			return fmt.Errorf("degrade leg: %w", err)
		}
		if counters["serve.disk_skipped"] != 1 || counters["serve.disk_write_drops"] < 1 || counters["serve.disk_errors"] < 1 {
			return fmt.Errorf("degrade leg: counters skipped=%d drops=%d errors=%d, want 1/>=1/>=1",
				counters["serve.disk_skipped"], counters["serve.disk_write_drops"], counters["serve.disk_errors"])
		}
		resp, err := http.Get(base + "/statusz")
		if err != nil {
			return err
		}
		stBody, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		var status struct {
			Disk *struct {
				Health     string `json:"health"`
				Skipped    int64  `json:"skipped"`
				WriteDrops int64  `json:"write_drops"`
			} `json:"disk"`
		}
		if err := json.Unmarshal(stBody, &status); err != nil || status.Disk == nil {
			return fmt.Errorf("degrade leg: statusz disk section missing: %v (%s)", err, stBody)
		}
		if status.Disk.Health != "healthy" || status.Disk.Skipped != 1 || status.Disk.WriteDrops < 1 {
			return fmt.Errorf("degrade leg: statusz disk %+v, want healthy with 1 skipped and >=1 drops", status.Disk)
		}
		return nil
	}()

	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && legErr == nil {
		legErr = fmt.Errorf("degrade leg shutdown: %w", err)
	}
	if err := srv.Drain(sctx); err != nil && legErr == nil {
		legErr = fmt.Errorf("degrade leg drain: %w", err)
	}
	if err := st.Close(); err != nil && legErr == nil {
		legErr = fmt.Errorf("degrade leg: %w", err)
	}
	if legErr != nil {
		return legErr
	}
	fmt.Fprintln(stdout, "[ok  ] graceful degradation: offline disk never client-visible — byte-identical fallthrough, gated consults, probe recovery to healthy")
	fmt.Fprintln(stdout, "[ok  ] statusz reports the disk health arc (healthy, 1 gated consult, counted write drops)")
	return nil
}

// counterSnapshot fetches /metricz and indexes the counters by name.
func counterSnapshot(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metricz")
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return nil, fmt.Errorf("decoding /metricz: %w", err)
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	return counters, nil
}

func postIterate(base string, body []byte) (respBody []byte, cacheHeader string, err error) {
	resp, err := http.Post(base+"/v1/iterate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	respBody, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("/v1/iterate: status %d: %s", resp.StatusCode, respBody)
	}
	return respBody, resp.Header.Get("X-Schedd-Cache"), nil
}

func expectStatus(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

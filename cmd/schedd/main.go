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
// writes every span as JSONL (analyze with cmd/schedtrace), truncating the
// file at startup: trace sequences restart with the process, so a second
// lifetime appended to the first would repeat its trace IDs. One file
// holds one lifetime's stream. -access-log appends, as its records are
// flat and stand alone. -pprof serves net/http/pprof on a secondary
// listener, never on the service address.
//
// Responses are deterministic in the request: same matrix, heuristic, tie
// policy and seed give byte-identical bodies, cached or computed. -selfcheck
// starts the daemon on an ephemeral port, replays the pinned Table-1
// Min-Min trace over real HTTP (twice: computed, then cached), verifies
// both bodies bit-for-bit and the span trees the requests left, replays
// every builtin chaos scenario (internal/chaos) whose topology is not a
// cluster — fault storms, batches, the breaker, worker panics, kill/restart
// over the disk tier and the sick-disk arcs — requiring every invariant to
// hold, drains, and exits 0: the smoke test run by scripts/check.sh.
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
		traceOut     = fs.String("trace-out", "", "write request spans as JSONL to this path, truncating it (analyze with cmd/schedtrace)")
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
			return usagef("-fault-inject cannot be combined with -selfcheck (the selfcheck's chaos scenarios inject their own seeded faults)")
		}
		var err error
		faultSpec, err = faults.Parse(*faultInject)
		if err != nil {
			return usagef("-fault-inject: %w", err)
		}
	}
	if *storeDir != "" && *selfcheck {
		return usagef("-store cannot be combined with -selfcheck (the selfcheck's restart and disk chaos scenarios open their own stores in temporary directories)")
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
	opts.Tracer = obs.NewTracer(sinks)
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
		err = selfCheck(srv, spanCol, stdout)
	} else {
		handler := http.Handler(srv.Handler())
		if *faultInject != "" {
			handler = faults.New(faultSpec, handler, srv.Metrics())
			fmt.Fprintf(stdout, "schedd: FAULT INJECTION ACTIVE (%s)\n", faultSpec)
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err = serve.ServeUntil(ctx, "schedd", *addr, handler, srv, *drainTimeout, stdout)
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

// selfCheck exercises the whole service end to end over a real TCP
// listener: the pinned Table-1 Min-Min matrix through /v1/iterate (computed
// then cached, byte-identical), /healthz, /metricz, the tracing path
// (spans land in spanCol), the builtin chaos scenarios and a graceful
// drain. Everything checked is deterministic; only [ok  ] lines are
// printed.
func selfCheck(srv *serve.Server, spanCol *obs.Collector, stdout io.Writer) error {
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

	// Every builtin chaos scenario one daemon can host, in-process on its
	// own stacks, every invariant required to hold: fault storms, batches,
	// the breaker, worker panics, kill/restart over the disk tier and the
	// sick-disk arcs. The cluster scenarios belong to schedgw -selfcheck.
	for _, sc := range chaos.Builtin() {
		if sc.Topology() == "cluster" {
			continue
		}
		rep, err := chaos.Run(sc)
		if err == nil {
			err = rep.Err()
		}
		if err != nil {
			return fmt.Errorf("chaos scenario %s: %w", sc.Name, err)
		}
		fmt.Fprintf(stdout, "[ok  ] chaos scenario %s: %d invariants hold\n", rep.Scenario, len(rep.Invariants))
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

// Command schedload is a seeded, deterministic load generator for schedd.
// It generates a fixed set of distinct ETC workloads from an explicit seed,
// fires them at a running daemon from concurrent resilient clients
// (internal/client: bounded retries, seeded-jitter backoff, per-attempt
// timeouts, circuit breaker), and reports throughput and latency quantiles
// (via internal/stats) plus cache-hit and retry counts. Request contents
// are fully deterministic in the flags; the latency and throughput numbers
// are wall-clock and observational only.
//
// With -verify (the default) it also asserts the service's core guarantee:
// every response to an identical request body is byte-identical, whether it
// was computed by a worker, served from the cache, or recovered through
// retries.
//
// With -batch N the request stream is grouped into /v1/batch posts of up to
// N items each. Latency quantiles are then per item (batch wall time divided
// by its item count), and -verify checks each batch item's body against a
// singleton response to the identical request: item body == singleton body
// minus the trailing newline.
//
// With -faults the generator interposes an in-process seeded fault proxy
// (internal/faults) between its clients and the daemon, so the resilient
// client can be exercised against rejections, dropped connections and
// truncated bodies without touching the daemon itself.
//
// Usage:
//
//	schedload -addr 127.0.0.1:8080 [-endpoint iterate|map] [-requests 64]
//	          [-batch 0] [-concurrency 8] [-tasks 16] [-machines 4]
//	          [-distinct 4] [-class hihi-i] [-heuristic min-min] [-ties det]
//	          [-seed 1] [-retries 3] [-backoff 10ms] [-timeout 5s]
//	          [-faults spec] [-trace-out spans.jsonl] [-verify=true]
//
// With -trace-out every Post is traced client-side — a root span per
// logical request with one child span per HTTP attempt (carrying the
// propagated trace ID and the server's echo) and per backoff sleep —
// written as JSONL for cmd/schedtrace. Span IDs derive from the request
// key and a sequence, so the span set is deterministic in the flags even
// though durations are wall-clock. The sequence restarts with every run,
// so -trace-out truncates the file at startup, as schedd and schedgw do:
// a second run appended to the first would repeat its trace IDs.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httputil"
	"net/url"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/etc"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/stats"
)

// outcome is one logical request's result; in batch mode every item of a
// batch post becomes its own outcome.
type outcome struct {
	status    int
	cache     string
	body      []byte
	err       error
	latencyMS float64
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schedload:", err)
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
	fs := flag.NewFlagSet("schedload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "", "schedd address, host:port or http://host:port (required)")
		endpoint    = fs.String("endpoint", "iterate", "scheduling endpoint: iterate or map")
		requests    = fs.Int("requests", 64, "total requests to send")
		batch       = fs.Int("batch", 0, "group requests into /v1/batch posts of up to this many items (0 = singleton requests)")
		concurrency = fs.Int("concurrency", 8, "concurrent client goroutines")
		tasks       = fs.Int("tasks", 16, "tasks per generated workload")
		machines    = fs.Int("machines", 4, "machines per generated workload")
		distinct    = fs.Int("distinct", 4, "distinct workloads cycled through the request stream")
		classLabel  = fs.String("class", "hihi-i", "workload class label, e.g. hihi-c, lolo-i (see etc.AllClasses)")
		heuristic   = fs.String("heuristic", "min-min", "mapping heuristic for every request")
		ties        = fs.String("ties", "det", "tie-breaking policy: det or random")
		seed        = fs.Uint64("seed", 1, "seed for workload generation, the requests' scheduling seed, backoff jitter and fault injection")
		retries     = fs.Int("retries", 3, "max retries per request after the first attempt (0 disables)")
		backoff     = fs.Duration("backoff", 10*time.Millisecond, "base retry backoff (exponential, seeded jitter)")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-attempt request timeout (a stalled daemon costs bounded time)")
		faultSpec   = fs.String("faults", "", "interpose an in-process seeded fault proxy, e.g. seed=7,reject=0.2:503:1,drop=0.1,truncate=0.1")
		traceOut    = fs.String("trace-out", "", "write client-side request spans as JSONL to this path, truncating it (analyze with cmd/schedtrace)")
		verify      = fs.Bool("verify", true, "assert byte-identical responses for identical request bodies")
	)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if *addr == "" {
		fs.Usage()
		return usagef("missing -addr")
	}
	if *requests <= 0 || *concurrency <= 0 || *distinct <= 0 {
		return usagef("-requests, -concurrency and -distinct must be positive")
	}
	if *batch < 0 {
		return usagef("-batch must be >= 0")
	}
	if *retries < 0 || *backoff <= 0 || *timeout <= 0 {
		return usagef("-retries must be >= 0; -backoff and -timeout must be positive")
	}
	if *endpoint != "iterate" && *endpoint != "map" {
		return usagef("unknown -endpoint %q (want iterate or map)", *endpoint)
	}
	class, err := classByLabel(*classLabel)
	if err != nil {
		return usageError{err}
	}

	// The request stream is deterministic in the flags: one rng source,
	// consumed workload by workload.
	src := rng.New(*seed)
	reqs := make([]serve.Request, *distinct)
	bodies := make([][]byte, *distinct)
	for i := range bodies {
		m, err := etc.GenerateClass(class, *tasks, *machines, src)
		if err != nil {
			return err
		}
		reqs[i] = serve.Request{
			ETC:       m.Values(),
			Heuristic: *heuristic,
			Ties:      *ties,
			Seed:      *seed,
		}
		bodies[i], err = json.Marshal(reqs[i])
		if err != nil {
			return err
		}
	}

	// In batch mode the stream is regrouped into ceil(requests/batch) batch
	// bodies; item i of the logical stream keeps its workload bodies[i%distinct].
	var batchBodies [][]byte
	if *batch > 0 {
		numBatches := (*requests + *batch - 1) / *batch
		batchBodies = make([][]byte, numBatches)
		for g := range batchBodies {
			lo, hi := g**batch, min((g+1)**batch, *requests)
			items := make([]serve.BatchItem, 0, hi-lo)
			for i := lo; i < hi; i++ {
				items = append(items, serve.BatchItem{Endpoint: *endpoint, Request: reqs[i%*distinct]})
			}
			b, err := json.Marshal(serve.BatchRequest{Items: items})
			if err != nil {
				return err
			}
			batchBodies[g] = b
		}
	}

	// MaxRetries: 0 in client.Options means "default", so map the flag's
	// literal 0 to the negative "disabled" form.
	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1
	}
	var traceSink *obs.JSONL
	var tracer *obs.Tracer
	if *traceOut != "" {
		f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		traceSink = obs.NewJSONL(f)
		tracer = obs.NewTracer(traceSink)
	}

	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	// One registry for the whole run: the resilient clients and (when
	// -faults is set) the fault proxy record into it, so the final
	// resilience line pairs injected faults with the retries they cost.
	reg := obs.NewMetrics()
	if *faultSpec != "" {
		spec, err := faults.Parse(*faultSpec)
		if err != nil {
			return usagef("-faults: %v", err)
		}
		proxyBase, err := startFaultProxy(spec, base, reg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "schedload: fault proxy %s -> %s (%s)\n", proxyBase, base, spec)
		base = proxyBase
	}
	target := base + "/v1/" + *endpoint
	batchTarget := base + "/v1/batch"

	// A zero-value http.Client has no timeout: one stalled connection would
	// hang the generator forever. The resilient client bounds every attempt
	// and retries transient failures; it is shared so the breaker sees the
	// whole request stream.
	cl := client.New(client.Options{
		MaxRetries:  maxRetries,
		BaseBackoff: *backoff,
		Timeout:     *timeout,
		Seed:        *seed,
		Metrics:     reg,
		Tracer:      tracer,
	})

	// Fire the whole stream from *concurrency goroutines, one outcome per
	// logical request. sendSingleton resolves logical request i through a
	// singleton post; sendBatch resolves one batch post into its items'
	// outcomes, charging every item an equal share of the batch's wall time.
	outcomes := make([]outcome, *requests)
	var next atomic.Int64
	sendSingleton := func(i int) {
		t0 := time.Now()
		resp, err := cl.Post(context.Background(), target, bodies[i%*distinct])
		latencyMS := float64(time.Since(t0)) / float64(time.Millisecond)
		var se *client.StatusError
		switch {
		case err == nil:
			outcomes[i] = outcome{
				status:    resp.Status,
				cache:     resp.Cache,
				body:      resp.Body,
				latencyMS: latencyMS,
			}
		case errors.As(err, &se):
			outcomes[i] = outcome{status: se.Status, body: se.Body, latencyMS: latencyMS}
		default:
			outcomes[i] = outcome{err: err, latencyMS: latencyMS}
		}
	}
	sendBatch := func(g int) {
		lo, hi := g**batch, min((g+1)**batch, *requests)
		t0 := time.Now()
		resp, err := cl.Post(context.Background(), batchTarget, batchBodies[g])
		perItemMS := float64(time.Since(t0)) / float64(time.Millisecond) / float64(hi-lo)
		fill := func(o outcome) {
			o.latencyMS = perItemMS
			for i := lo; i < hi; i++ {
				outcomes[i] = o
			}
		}
		var se *client.StatusError
		switch {
		case err == nil:
			var br serve.BatchResponse
			if uerr := json.Unmarshal(resp.Body, &br); uerr != nil {
				fill(outcome{err: fmt.Errorf("batch envelope: %w", uerr)})
				return
			}
			if len(br.Results) != hi-lo {
				fill(outcome{err: fmt.Errorf("batch returned %d results for %d items", len(br.Results), hi-lo)})
				return
			}
			for i := lo; i < hi; i++ {
				res := br.Results[i-lo]
				outcomes[i] = outcome{status: res.Status, cache: res.Cache, body: res.Body, latencyMS: perItemMS}
			}
		case errors.As(err, &se):
			fill(outcome{status: se.Status, body: se.Body})
		default:
			fill(outcome{err: err})
		}
	}
	jobs := *requests
	send := sendSingleton
	if *batch > 0 {
		jobs = len(batchBodies)
		send = sendBatch
	}
	var wg sync.WaitGroup
	start := time.Now() // wall-clock: throughput/latency reporting only
	for c := 0; c < *concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= jobs {
					return
				}
				send(j)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Tally ok/failed/hit counts and the latency sample, reporting every
	// failure to stderr.
	var ok, failed, hits int
	latencies := make([]float64, 0, *requests)
	for i, o := range outcomes {
		switch {
		case o.err != nil:
			failed++
			fmt.Fprintf(stderr, "request %d: %v\n", i, o.err)
		case o.status != http.StatusOK:
			failed++
			fmt.Fprintf(stderr, "request %d: status %d: %s", i, o.status, o.body)
		default:
			ok++
			latencies = append(latencies, o.latencyMS)
			if o.cache == "hit" {
				hits++
			}
		}
	}

	counters := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	if *batch > 0 {
		fmt.Fprintf(stdout, "schedload: %d requests to %s in %d batches of up to %d (%dx%d %s, heuristic %s, ties %s, seed %d, %d distinct, concurrency %d)\n",
			*requests, batchTarget, len(batchBodies), *batch, *tasks, *machines, class.Label(), *heuristic, *ties, *seed, *distinct, *concurrency)
	} else {
		fmt.Fprintf(stdout, "schedload: %d requests to %s (%dx%d %s, heuristic %s, ties %s, seed %d, %d distinct, concurrency %d)\n",
			*requests, target, *tasks, *machines, class.Label(), *heuristic, *ties, *seed, *distinct, *concurrency)
	}
	fmt.Fprintf(stdout, "responses: %d ok, %d errors, %d cache hits\n", ok, failed, hits)
	fmt.Fprintf(stdout, "resilience: %d attempts, %d retries, %d breaker fast-fails, %d injected faults\n",
		counters["client.attempts_total"], counters["client.retries_total"],
		counters["client.fastfail_total"], counters["faults.injected_total"])
	fmt.Fprintf(stdout, "throughput: %.1f req/s (%.1f ms total, observational)\n",
		float64(*requests)/elapsed.Seconds(), float64(elapsed)/float64(time.Millisecond))
	if len(latencies) > 0 {
		qs, err := stats.Quantiles(latencies, 0.5, 0.9, 0.99, 1)
		if err != nil {
			return err
		}
		label := "latency ms"
		if *batch > 0 {
			label = "per-item latency ms"
		}
		fmt.Fprintf(stdout, "%s: p50 %.3f p90 %.3f p99 %.3f max %.3f (observational)\n",
			label, qs[0], qs[1], qs[2], qs[3])
	}

	if *verify {
		if err := verifyStream(cl, target, bodies, outcomes, *batch > 0); err != nil {
			return err
		}
		if *batch > 0 {
			fmt.Fprintf(stdout, "verify: %d distinct bodies -> batch items byte-identical to singleton responses\n", *distinct)
		} else {
			fmt.Fprintf(stdout, "verify: %d distinct bodies -> byte-identical responses\n", *distinct)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d requests failed", failed, *requests)
	}
	if traceSink != nil {
		if err := traceSink.Err(); err != nil {
			return fmt.Errorf("writing -trace-out: %w", err)
		}
	}
	return nil
}

// verifyStream checks the determinism guarantee over the run's outcomes:
// identical bodies (outcome i carries bodies[i%len(bodies)]) must have
// produced byte-identical responses, cache hit or miss. In batch mode the
// reference is a fresh singleton response per distinct body, posted to
// target: a batch item's bytes must equal the singleton response minus its
// trailing newline (the envelope carries no framing).
func verifyStream(cl *client.Client, target string, bodies [][]byte, outcomes []outcome, batch bool) error {
	reference := make([][]byte, len(bodies))
	if batch {
		for k, body := range bodies {
			resp, err := cl.Post(context.Background(), target, body)
			if err != nil {
				return fmt.Errorf("verify: singleton reference %d: %w", k, err)
			}
			reference[k] = bytes.TrimSuffix(resp.Body, []byte("\n"))
		}
	}
	for i, o := range outcomes {
		if o.err != nil || o.status != http.StatusOK {
			continue
		}
		k := i % len(bodies)
		if reference[k] == nil {
			reference[k] = o.body
			continue
		}
		if !bytes.Equal(reference[k], o.body) {
			if batch {
				return fmt.Errorf("request %d: batch item differs from the singleton response to the identical body", i)
			}
			return fmt.Errorf("request %d: response differs from an earlier response to the identical body", i)
		}
	}
	return nil
}

// startFaultProxy listens on an ephemeral loopback port and relays every
// request to base through the seeded fault injector, recording faults.*
// counters into reg. The listener lives for the process: schedload is a
// short-lived tool.
func startFaultProxy(spec faults.Spec, base string, reg *obs.Metrics) (string, error) {
	u, err := url.Parse(base)
	if err != nil {
		return "", fmt.Errorf("-addr: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	proxy := httputil.NewSingleHostReverseProxy(u)
	// Severed client connections mid-relay are the injector's job, not
	// noise for the terminal.
	proxy.ErrorLog = log.New(io.Discard, "", 0)
	go http.Serve(ln, faults.New(spec, proxy, reg))
	return "http://" + ln.Addr().String(), nil
}

// classByLabel resolves an etc workload class from its conventional label.
func classByLabel(label string) (etc.Class, error) {
	var labels []string
	for _, c := range etc.AllClasses() {
		if c.Label() == label {
			return c, nil
		}
		labels = append(labels, c.Label())
	}
	return etc.Class{}, fmt.Errorf("unknown -class %q (available: %s)", label, strings.Join(labels, ", "))
}

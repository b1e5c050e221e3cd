package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// startServer runs a serve.Server behind a real HTTP listener for the load
// generator to hit.
func startServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv := serve.NewServer(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("Drain: %v", err)
		}
	})
	return srv, ts
}

func TestLoadAgainstServer(t *testing.T) {
	_, ts := startServer(t, serve.Options{})
	var stdout, stderr bytes.Buffer
	args := []string{
		"-addr", ts.URL,
		"-requests", "24", "-concurrency", "4",
		"-tasks", "8", "-machines", "3", "-distinct", "3",
		"-heuristic", "sufferage", "-ties", "random", "-seed", "7",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"24 ok, 0 errors",
		"latency ms: p50",
		"verify: 3 distinct bodies -> byte-identical responses",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	// 3 distinct bodies, 24 requests: at least 21 must be cache hits.
	if strings.Contains(out, " 0 cache hits") {
		t.Errorf("expected cache hits in:\n%s", out)
	}
}

// TestLoadBatchMode groups the stream into /v1/batch posts: every item must
// succeed, per-item latency quantiles are reported, and -verify proves each
// batch item byte-identical to a singleton response for the same body.
func TestLoadBatchMode(t *testing.T) {
	_, ts := startServer(t, serve.Options{})
	var stdout, stderr bytes.Buffer
	args := []string{
		"-addr", ts.URL,
		"-requests", "24", "-batch", "7", "-concurrency", "2",
		"-tasks", "8", "-machines", "3", "-distinct", "3",
		"-heuristic", "sufferage", "-seed", "9",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"24 requests", "in 4 batches of up to 7",
		"24 ok, 0 errors",
		"per-item latency ms: p50",
		"verify: 3 distinct bodies -> batch items byte-identical to singleton responses",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	// 3 distinct workloads across 24 items: the warm items must be hits.
	if strings.Contains(out, " 0 cache hits") {
		t.Errorf("expected cache hits in:\n%s", out)
	}
}

func TestLoadMapEndpoint(t *testing.T) {
	_, ts := startServer(t, serve.Options{})
	var stdout, stderr bytes.Buffer
	args := []string{
		"-addr", strings.TrimPrefix(ts.URL, "http://"), // bare host:port form
		"-endpoint", "map",
		"-requests", "6", "-concurrency", "2",
		"-tasks", "4", "-machines", "2", "-distinct", "2",
		"-class", "lolo-c",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "/v1/map") {
		t.Errorf("stdout missing endpoint: %s", stdout.String())
	}
}

// TestStalledServerCostsBoundedTime is the regression test for the
// zero-value http.Client bug: a daemon that accepts connections but never
// answers must cost the generator its per-attempt timeout budget, not hang
// it forever.
func TestStalledServerCostsBoundedTime(t *testing.T) {
	stall := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-stall
	}))
	defer ts.Close()
	defer close(stall) // LIFO: release the handlers before ts.Close waits on them

	var stdout, stderr bytes.Buffer
	args := []string{
		"-addr", ts.URL,
		"-requests", "2", "-concurrency", "2",
		"-tasks", "4", "-machines", "2", "-distinct", "1",
		"-timeout", "100ms", "-retries", "1", "-backoff", "1ms",
	}
	start := time.Now()
	err := run(args, &stdout, &stderr)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatalf("run against a stalled server: want error, got ok\nstdout: %s", stdout.String())
	}
	if !strings.Contains(err.Error(), "2 of 2 requests failed") {
		t.Errorf("err = %v, want both requests failed", err)
	}
	// 2 attempts x 100ms each plus backoff: far under 5s; without the
	// per-attempt timeout this test would hang until the suite deadline.
	if elapsed > 5*time.Second {
		t.Errorf("run took %v against a stalled server, want bounded by the -timeout budget", elapsed)
	}
}

// TestFaultProxyRecovers drives the generator through its in-process fault
// proxy: injected rejections, drops and truncations must cost retries, not
// correctness — every request succeeds and the verify pass still proves
// byte-identical responses.
func TestFaultProxyRecovers(t *testing.T) {
	_, ts := startServer(t, serve.Options{})
	var stdout, stderr bytes.Buffer
	args := []string{
		"-addr", ts.URL,
		"-requests", "24", "-concurrency", "4",
		"-tasks", "6", "-machines", "3", "-distinct", "2",
		"-retries", "8", "-backoff", "1ms", "-timeout", "2s",
		"-faults", "seed=3,reject=0.15:503:1,drop=0.1,truncate=0.1",
	}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"schedload: fault proxy",
		"24 ok, 0 errors",
		"verify: 2 distinct bodies -> byte-identical responses",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, " 0 injected faults") {
		t.Errorf("fault proxy injected nothing:\n%s", out)
	}
	if strings.Contains(out, " 0 retries") {
		t.Errorf("resilient client never retried:\n%s", out)
	}
}

// TestTraceOutHoldsOneRun: two runs on one -trace-out path leave a
// well-formed stream. Trace IDs are the request key's hash plus a
// per-process sequence that restarts at 1, so a second run appended to the
// first would repeat its IDs; -trace-out truncates instead, and the file
// holds the last run's traces.
func TestTraceOutHoldsOneRun(t *testing.T) {
	_, ts := startServer(t, serve.Options{})
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	args := []string{"-addr", ts.URL, "-requests", "4", "-distinct", "2", "-trace-out", path}
	for i := 0; i < 2; i++ {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("run %d: %v\nstderr: %s", i, err, stderr.String())
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if sum := obs.SummarizeSpans(spans); !sum.WellFormed() || sum.Roots != 4 {
		t.Fatalf("-trace-out after two runs: %d roots, malformed %v; want the last run's 4 well-formed traces", sum.Roots, sum.Malformed)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                                  // missing -addr
		{"-addr", "x", "-endpoint", "nope"}, // bad endpoint
		{"-addr", "x", "-class", "zz-q"},    // bad class
		{"-addr", "x", "-requests", "0"},    // non-positive
		{"-addr", "x", "-retries", "-1"},    // negative retries
		{"-addr", "x", "-batch", "-1"},      // negative batch size
		{"-addr", "x", "-faults", "drop=2"}, // bad fault spec
		{"-nope"},                           // unknown flag
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v): want error", args)
			continue
		}
		if exitCode(err) != 2 {
			t.Errorf("run(%v): exit code %d, want 2 (usage)", args, exitCode(err))
		}
		if strings.Contains(stdout.String(), "Usage") {
			t.Errorf("run(%v): usage leaked to stdout", args)
		}
	}
	// Runtime failures (an unreachable daemon, failed requests) stay exit 1.
	var stdout, stderr bytes.Buffer
	err := run([]string{"-addr", "127.0.0.1:1", "-requests", "1", "-retries", "0", "-timeout", "100ms"}, &stdout, &stderr)
	if err == nil {
		t.Fatal("run against an unreachable daemon: want error")
	}
	if exitCode(err) != 1 {
		t.Errorf("exitCode(runtime failure) = %d, want 1", exitCode(err))
	}
}

package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
)

// TestSelfcheck runs the full end-to-end smoke in-process: ephemeral port,
// pinned Table-1 /v1/iterate trace, byte-identical cache hit, the metricz
// hit, the trace leg and /statusz, drain. The chaos scenarios are
// schedchaos's: the selfcheck replays none of them.
func TestSelfcheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-selfcheck"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -selfcheck: %v\nstderr: %s", err, stderr.String())
	}
	want := []string{
		"[ok  ] healthz",
		"[ok  ] /v1/iterate reproduces the pinned Table-1 trace",
		"[ok  ] cache hit is byte-identical to the computed response",
		"[ok  ] metricz reports the cache hit",
		"[ok  ] every request traced: well-formed span trees, stable key half, header matches a root",
		"[ok  ] statusz folds the spans into per-stage latency quantiles",
		"[ok  ] drained",
	}
	for _, w := range want {
		if !strings.Contains(stdout.String(), w) {
			t.Errorf("stdout missing %q:\n%s", w, stdout.String())
		}
	}
	if got := strings.Count(stdout.String(), "[ok  ] "); got != len(want) {
		t.Errorf("%d [ok  ] lines, want %d:\n%s", got, len(want), stdout.String())
	}
	if strings.Contains(stdout.String(), "chaos") {
		t.Errorf("selfcheck replayed a chaos scenario:\n%s", stdout.String())
	}
}

// TestSelfcheckWritesAccessLog checks the -access-log JSONL sink records
// one request_done line per scheduling request, each stamped with its own
// trace ID: the selfcheck's three Table-1 requests, a computed miss and two
// cache hits.
func TestSelfcheckWritesAccessLog(t *testing.T) {
	path := t.TempDir() + "/requests.jsonl"
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-selfcheck", "-access-log", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d access-log lines, want 3 (miss, hit, hit):\n%s", len(lines), data)
	}
	ids := map[string]bool{}
	for i, line := range lines {
		for _, want := range []string{`"event":"request_done"`, `"endpoint":"/v1/iterate"`, `"status":200`, `"trace_id":"`} {
			if !strings.Contains(line, want) {
				t.Fatalf("line %d lacks %s: %s", i, want, line)
			}
		}
		cache := `"cache":"hit"`
		if i == 0 {
			cache = `"cache":"miss"`
		}
		if !strings.Contains(line, cache) {
			t.Fatalf("line %d: want %s: %s", i, cache, line)
		}
		// Every request gets its own trace: IDs never repeat, even though
		// the three share one canonical request key (the sequence half
		// differs).
		_, rest, _ := strings.Cut(line, `"trace_id":"`)
		id, _, _ := strings.Cut(rest, `"`)
		if ids[id] {
			t.Fatalf("trace_id %s repeated across requests:\n%s", id, data)
		}
		ids[id] = true
	}
}

// TestFaultInjectFlagValidation pins -fault-inject's fail-fast contract: a
// typo'd spec is an error before any listener opens, and combining it with
// -selfcheck (which pins a fault-free Table-1 trace) is refused.
func TestFaultInjectFlagValidation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-fault-inject", "reject=2.0:503"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-fault-inject") {
		t.Fatalf("bad spec: err = %v, want a -fault-inject parse error", err)
	}
	err = run([]string{"-selfcheck", "-fault-inject", "drop=0.5"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "-selfcheck") {
		t.Fatalf("with -selfcheck: err = %v, want a conflict error", err)
	}
}

// TestFlagValueValidation pins the usage-error sweep: nonsensical flag
// values fail fast with a usage-class error (exit 2), before any listener,
// pool or cache is constructed.
func TestFlagValueValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error must mention
	}{
		{[]string{"-queue", "-1"}, "-queue"},
		{[]string{"-workers", "-2"}, "-workers"},
		{[]string{"-timeout", "-1s"}, "-timeout"},
		{[]string{"-drain-timeout", "0s"}, "-drain-timeout"},
		{[]string{"-selfcheck", "-store", t.TempDir()}, "-store"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		err := run(tc.args, &stdout, &stderr)
		if err == nil {
			t.Errorf("run(%v): want usage error", tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v): err %q, want mention of %q", tc.args, err, tc.want)
		}
		if daemon.ExitCode(err) != 2 {
			t.Errorf("run(%v): exit code %d, want 2 (usage)", tc.args, daemon.ExitCode(err))
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v): usage leaked to stdout: %s", tc.args, stdout.String())
		}
	}
	// Runtime failures stay exit 1, and flag-syntax errors are usage.
	if got := daemon.ExitCode(errOpaque{}); got != 1 {
		t.Errorf("daemon.ExitCode(runtime error) = %d, want 1", got)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-nope"}, &stdout, &stderr); daemon.ExitCode(err) != 2 {
		t.Errorf("daemon.ExitCode(flag parse error) = %d, want 2", daemon.ExitCode(err))
	}
}

type errOpaque struct{}

func (errOpaque) Error() string { return "runtime failure" }

// TestBadFlags pins the run() error contract: flag errors return an error
// (after usage on stderr) and write nothing to stdout.
func TestBadFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-nope"}, &stdout, &stderr); err == nil {
		t.Fatal("run with unknown flag: want error")
	}
	if stdout.Len() != 0 {
		t.Errorf("usage leaked to stdout: %s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "-addr") {
		t.Errorf("stderr missing usage text: %s", stderr.String())
	}
}

// startDaemon runs the daemon in-process with args plus an ephemeral
// -addr and returns the base URL from its "listening on" line, and stop,
// which sends SIGTERM and waits for a clean drain. Call stop only after a
// request has been answered: serving starts after the signal handler is
// installed, so an answer proves SIGTERM drains rather than kills.
func startDaemon(t *testing.T, args ...string) (base string, stop func()) {
	t.Helper()
	pr, pw := io.Pipe()
	var stderr bytes.Buffer
	done := make(chan error, 1)
	go func() {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, args...), pw, &stderr)
		pw.Close()
		done <- err
	}()

	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "schedd: listening on "); ok {
			base = rest[:strings.Index(rest, " ")]
			break
		}
	}
	if base == "" {
		t.Fatalf("no listening line before stdout closed; stderr: %s", stderr.String())
	}
	// Keep draining stdout so the daemon's drain messages never block.
	go func() {
		for sc.Scan() {
		}
	}()
	return base, func() {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("run returned %v after SIGTERM; stderr: %s", err, stderr.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not drain within 10s of SIGTERM")
		}
	}
}

// TestEphemeralAddr pins the embedding contract satellite tools (schedgw
// -local, scripts, tests) rely on: `-addr 127.0.0.1:0` binds an ephemeral
// port, the bound address is printed to stdout in the "listening on" line
// before any request is served, the daemon answers on it, and SIGTERM
// drains cleanly.
func TestEphemeralAddr(t *testing.T) {
	base, stop := startDaemon(t)
	if strings.HasSuffix(base, ":0") {
		t.Fatalf("listening line still carries port 0: %q", base)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET %s/healthz: %v", base, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	stop()
}

// TestTraceOutHoldsOneLifetime: two daemon lifetimes on one -trace-out path
// leave a well-formed stream. Trace IDs are the request key's hash plus a
// per-process sequence that restarts at 1, so a restarted daemon appending
// to the file would repeat the first lifetime's IDs; -trace-out truncates
// instead, and the file holds the last lifetime's single trace.
func TestTraceOutHoldsOneLifetime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	body := `{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":"min-min","ties":"det","seed":1}`
	for lifetime := 0; lifetime < 2; lifetime++ {
		base, stop := startDaemon(t, "-trace-out", path)
		resp, err := http.Post(base+"/v1/iterate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("lifetime %d: %v", lifetime, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("lifetime %d: status %d", lifetime, resp.StatusCode)
		}
		stop()
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
	if sum := obs.SummarizeSpans(spans); !sum.WellFormed() || sum.Roots != 1 {
		t.Fatalf("-trace-out after two lifetimes: %d roots, malformed %v; want one well-formed trace", sum.Roots, sum.Malformed)
	}
}

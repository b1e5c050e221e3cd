package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/daemon"
)

// TestSelfcheck runs the full cluster smoke in-process: 3 local backends,
// gateway on an ephemeral port, the Table-1 miss byte-identical to a single
// instance and its byte-identical hit, the two traces, drain. The cluster
// chaos scenarios are schedchaos's: the selfcheck replays none of them.
func TestSelfcheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-selfcheck"}, &stdout, &stderr); err != nil {
		t.Fatalf("run -selfcheck: %v\nstderr: %s\nstdout: %s", err, stderr.String(), stdout.String())
	}
	want := []string{
		"[ok  ] healthz aggregates all 3 backends",
		"[ok  ] pinned Table-1 trace through the cluster is byte-identical to a single instance; repeat routes to the warm cache",
		"[ok  ] 2 gateway traces well-formed with route/backend_wait/write stages",
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

// TestSelfcheckRejectsBackendFlags pins the flag exclusivity.
func TestSelfcheckRejectsBackendFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-selfcheck", "-local", "2"}, &stdout, &stderr); err == nil {
		t.Fatal("-selfcheck -local accepted")
	}
	if err := run([]string{"-selfcheck", "-backends", "a=http://x"}, &stdout, &stderr); err == nil {
		t.Fatal("-selfcheck -backends accepted")
	}
}

// TestParseBackends covers the -backends grammar.
func TestParseBackends(t *testing.T) {
	got, err := parseBackends("a=http://127.0.0.1:8081, b=http://127.0.0.1:8082/")
	if err != nil {
		t.Fatal(err)
	}
	want := []cluster.Backend{
		{Name: "a", URL: "http://127.0.0.1:8081"},
		{Name: "b", URL: "http://127.0.0.1:8082"},
	}
	if len(got) != len(want) {
		t.Fatalf("%d backends, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backend %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", "a", "=url", "a=", "a=u,b"} {
		if _, err := parseBackends(bad); err == nil {
			t.Errorf("parseBackends(%q) accepted", bad)
		}
	}
}

// TestRunNeedsMembership pins the no-configuration error — and that it is
// a usage-class error (exit 2), like every other operator mistake.
func TestRunNeedsMembership(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(nil, &stdout, &stderr)
	if err == nil {
		t.Fatal("run with no membership accepted")
	}
	if daemon.ExitCode(err) != 2 {
		t.Fatalf("exit code %d, want 2 (usage)", daemon.ExitCode(err))
	}
}

// TestFlagValueValidation pins the usage-error sweep: nonsensical flag
// values fail fast with a usage-class error (exit 2) before any backend,
// listener or store is constructed, and nothing leaks to stdout.
func TestFlagValueValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string // substring the error must mention
	}{
		{[]string{"-local", "-1"}, "-local"},
		{[]string{"-retries", "-2", "-local", "2"}, "-retries"},
		{[]string{"-drain-timeout", "0s", "-local", "2"}, "-drain-timeout"},
		{[]string{"-client-timeout", "-1s", "-local", "2"}, "-client-timeout"},
		// With -selfcheck a -backoff the check misses runs to a clean
		// exit instead of serving until a signal.
		{[]string{"-backoff", "-1s", "-selfcheck"}, "-backoff"},
		{[]string{"-store-dir", t.TempDir(), "-backends", "a=http://x"}, "-store-dir"},
		{[]string{"-local", "2", "-backends", "a=http://x"}, "mutually exclusive"},
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
	// Runtime failures stay exit 1; flag-syntax errors are usage.
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

// startDaemon runs the gateway in-process with args plus an ephemeral
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
		if rest, ok := strings.CutPrefix(sc.Text(), "schedgw: listening on "); ok {
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
			t.Fatal("gateway did not drain within 10s of SIGTERM")
		}
	}
}

// TestEphemeralAddr: `-local 1 -addr 127.0.0.1:0` binds an ephemeral port,
// prints the bound address in the "listening on" line before any request
// is served, routes a scheduling request on it, and SIGTERM drains
// cleanly.
func TestEphemeralAddr(t *testing.T) {
	base, stop := startDaemon(t, "-local", "1")
	if strings.HasSuffix(base, ":0") {
		t.Fatalf("listening line still carries port 0: %q", base)
	}
	body := `{"etc":[[5,3,6],[4,1,1],[5,3,2],[5,5,4]],"heuristic":"min-min","ties":"det","seed":1}`
	resp, err := http.Post(base+"/v1/iterate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s/v1/iterate: %v", base, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/iterate status %d", resp.StatusCode)
	}
	stop()
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// builtinNames is every stock scenario, of every topology.
var builtinNames = []string{
	"storm", "truncate-flood", "batch-storm", "breaker-trip", "panic-isolation",
	"backend-kill", "backend-rejoin", "split-routing-storm",
	"restart-recovery", "disk-fault", "disk-full",
}

// TestAllScenariosPass is the same smoke leg scripts/check.sh runs: every
// builtin scenario replays clean and the process would exit 0.
func TestAllScenariosPass(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenario", "all"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if strings.Contains(out, "[FAIL]") {
		t.Fatalf("invariant failure in output:\n%s", out)
	}
	if !strings.Contains(out, "schedchaos: 11 scenario(s), every invariant ok") {
		t.Fatalf("missing summary line:\n%s", out)
	}
	for _, name := range builtinNames {
		if !strings.Contains(out, "scenario "+name+" ") {
			t.Fatalf("scenario %s missing from output:\n%s", name, out)
		}
	}
}

// TestStdoutDeterministic pins the CLI half of the determinism promise
// across commits, not just across runs: the -json sweep over every builtin
// at its pinned seed — each header line, each invariant line and the full
// JSON array — must match testdata/all.golden byte for byte.
func TestStdoutDeterministic(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-json"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stdout differs from testdata/all.golden at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout has %d lines, testdata/all.golden %d", len(gl), len(wl))
	}
}

func TestReportFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-scenario", "breaker-trip", "-report", path}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep chaos.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if rep.Scenario != "breaker-trip" || !rep.Pass {
		t.Fatalf("report %+v, want breaker-trip pass", rep)
	}
}

func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, name := range builtinNames {
		if !strings.Contains(stdout.String(), name+" ") {
			t.Fatalf("-list missing %s:\n%s", name, stdout.String())
		}
	}
}

func TestErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run([]string{"-scenario", "nope"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "available") {
		t.Fatalf("unknown scenario error %v, want available-list error", err)
	}
	for _, name := range builtinNames {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown scenario error %q omits %s", err, name)
		}
	}

	stderr.Reset()
	if err := run([]string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Fatal("bad flag accepted")
	}
	if !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "-scenario") {
		t.Fatalf("flag error did not print usage to stderr:\n%s", stderr.String())
	}

	stderr.Reset()
	if err := run([]string{"extra"}, &stdout, &stderr); err == nil {
		t.Fatal("positional argument accepted")
	}

	// The seed override must not collide with the harness's panic sentinel.
	if err := run([]string{"-scenario", "storm", "-seed", strconv.FormatUint(chaos.PanicSeed, 10)}, &stdout, &stderr); err == nil {
		t.Fatal("PanicSeed accepted as a scenario seed override")
	}
}

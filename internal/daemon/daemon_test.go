package daemon

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestLogFilePolicy runs two daemon lifetimes on one pair of paths.
// -trace-out truncates: trace sequences restart with the process, so the
// file must hold only the second lifetime's one trace. -access-log
// appends: both lifetimes' request_done records stay.
func TestLogFilePolicy(t *testing.T) {
	dir := t.TempDir()
	access, trace := filepath.Join(dir, "requests.jsonl"), filepath.Join(dir, "spans.jsonl")
	for lifetime := 0; lifetime < 2; lifetime++ {
		logs, err := OpenLogs(access, trace)
		if err != nil {
			t.Fatal(err)
		}
		logs.Access().Observe(obs.RequestDone{Endpoint: "/v1/iterate", Status: 200})
		tr := logs.Tracer(obs.NewMetrics(), "serve", nil).StartTrace("request")
		tr.SetKey("table-1")
		tr.Start("write").End()
		tr.Finish(200, "miss")
		if err := logs.Close(); err != nil {
			t.Fatalf("lifetime %d: Close: %v", lifetime, err)
		}
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		t.Fatal(err)
	}
	if sum := obs.SummarizeSpans(spans); !sum.WellFormed() || sum.Roots != 1 {
		t.Errorf("-trace-out after two lifetimes: %d roots, malformed %v; want the second lifetime's one trace", sum.Roots, sum.Malformed)
	}

	data, err := os.ReadFile(access)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte(`"event":"request_done"`)); n != 2 {
		t.Errorf("-access-log after two lifetimes holds %d request_done records, want 2 (one per lifetime):\n%s", n, data)
	}
}

// TestLogsOff: without paths nothing is opened, the access observer is a
// nil interface (so the fronts build no events), and the tracer still
// feeds the stage metrics.
func TestLogsOff(t *testing.T) {
	logs, err := OpenLogs("", "")
	if err != nil {
		t.Fatal(err)
	}
	if logs.Access() != nil {
		t.Error("Access() without -access-log is not a nil observer")
	}
	if logs.Tracer(obs.NewMetrics(), "serve", nil) == nil {
		t.Error("Tracer() without -trace-out is nil; tracing is always on")
	}
	if err := logs.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogsCloseReportsWriteErrors: a write error a sink latched fails the
// run, naming its flag.
func TestLogsCloseReportsWriteErrors(t *testing.T) {
	logs, err := OpenLogs("", "")
	if err != nil {
		t.Fatal(err)
	}
	logs.access = obs.NewJSONL(failWriter{})
	logs.Access().Observe(obs.RequestDone{Endpoint: "/v1/iterate", Status: 200})
	if err := logs.Close(); err == nil || !strings.Contains(err.Error(), "-access-log") {
		t.Fatalf("Close after a failed write: %v, want an error naming -access-log", err)
	}
	if err := logs.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil", err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestRunCheckStopsOnFailure: a selfcheck that fails still stops its
// listener and drains its front, and reports the check's error, not a
// drained line.
func TestRunCheckStopsOnFailure(t *testing.T) {
	var out bytes.Buffer
	d := &drainer{}
	want := errors.New("table-1 makespan 6 -> 6, want 5 -> 5")
	var base string
	err := RunCheck("d", http.NotFoundHandler(), d, &obs.Collector{}, &out, func(c *Check) error {
		base = c.Base
		return want
	})
	if !errors.Is(err, want) {
		t.Fatalf("RunCheck: %v, want the check's error", err)
	}
	if d.drains != 1 {
		t.Errorf("front drained %d times, want 1", d.drains)
	}
	if strings.Contains(out.String(), "drained") {
		t.Errorf("a failed check printed the drained line:\n%s", out.String())
	}
	if resp, err := http.Get(base + "/healthz"); err == nil {
		resp.Body.Close()
		t.Error("the check's listener still answers after RunCheck returned")
	}
}

type drainer struct{ drains int }

func (d *drainer) Drain(context.Context) error { d.drains++; return nil }
func (d *drainer) String() string              { return "test front" }

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/rng"
)

// corpusDigest hashes everything a workload would send for a seed: its
// pool, its first never-seen items, and each client's first draws.
func corpusDigest(t *testing.T, name string, seed uint64) [sha256.Size]byte {
	t.Helper()
	c, err := newCorpus(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, it := range c.pool {
		h.Write([]byte(it.path))
		h.Write(it.body)
	}
	for i := int64(0); i < 8; i++ {
		h.Write(c.fresh(i).body)
	}
	for cl := uint64(0); cl < clients; cl++ {
		src := rng.New(mix(seed, streamUntraced, cl))
		for i := 0; i < 8; i++ {
			r := c.draw(src)
			h.Write([]byte(r.path))
			h.Write(r.body)
		}
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestCorpusDeterministicInSeed(t *testing.T) {
	for _, name := range workloads {
		a, b := corpusDigest(t, name, 7), corpusDigest(t, name, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave two different corpora", name)
		}
		if corpusDigest(t, name, 8) == a {
			t.Errorf("%s: seeds 7 and 8 gave the same corpus", name)
		}
	}
}

func TestBatchItemsAreSingletonsWithEndpoint(t *testing.T) {
	c, err := newCorpus(diskChurn, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := c.draw(rng.New(1))
	var env struct {
		Items []map[string]json.RawMessage `json:"items"`
	}
	if err := json.Unmarshal(r.body, &env); err != nil {
		t.Fatal(err)
	}
	if len(env.Items) != batchItems || len(r.items) != batchItems {
		t.Fatalf("batch has %d items (%d described), want %d", len(env.Items), len(r.items), batchItems)
	}
	for i, it := range r.items {
		want := `"iterate"`
		if it.path == "/v1/map" {
			want = `"map"`
		}
		if got := string(env.Items[i]["endpoint"]); got != want {
			t.Errorf("item %d: endpoint %s, want %s", i, got, want)
		}
	}
}

// smoke prepares and starts a workload, drives it untraced for d, and
// verifies every result.
func smoke(t *testing.T, name string, d time.Duration) *phase {
	t.Helper()
	dir := t.TempDir()
	e, err := prepare(config{workload: name, seed: 3}, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer e.ref.close()
	st, err := e.start(nil)
	if err != nil {
		t.Fatal(err)
	}
	p := drive(st, e.c, e.refs, e.keys, d, nil, streamUntraced)
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	p.verify(e.c, e.ref)
	if p.failed != 0 || p.attempted == 0 {
		t.Fatalf("%s: %d of %d results failed: %v", name, p.failed, p.attempted, p.failures)
	}
	return p
}

func share(p *phase, state string) float64 {
	var total int64
	for _, v := range p.states {
		total += v
	}
	return float64(p.states[state]) / float64(total)
}

func TestEngineMissNeverHitsTheCache(t *testing.T) {
	p := smoke(t, engineMiss, time.Second)
	if p.states["hit"] != 0 || p.states["coalesced"] != 0 || p.states["disk"] != 0 {
		t.Fatalf("engine-miss results by cache state %v, want all computed", p.states)
	}
	if int64(len(p.distinct)) != p.attempted {
		t.Fatalf("%d distinct keys over %d results, want every key unique", len(p.distinct), p.attempted)
	}
}

func TestGatewayHotHitsAfterWarmUp(t *testing.T) {
	p := smoke(t, gatewayHot, time.Second)
	if s := share(p, "hit"); s < 0.99 {
		t.Fatalf("gateway-hot LRU hit share %.4f (states %v), want at least 0.99", s, p.states)
	}
}

// The resident set is 16× the LRU, so a resident item is found in the LRU
// only when it was drawn within the last ~256 distinct items: about 5% of
// the resident share. The disk-hit share stays within 0.08 of the
// configured resident share.
func TestDiskChurnDiskHitShare(t *testing.T) {
	p := smoke(t, diskChurn, 2*time.Second)
	if s := share(p, "disk"); math.Abs(s-residentShare) > 0.08 {
		t.Fatalf("disk-churn disk-hit share %.4f (states %v), want within 0.08 of %.2f", s, p.states, residentShare)
	}
}

// TestCommandEveryWorkload runs the one command, traced, on every
// workload: every response must pass the correctness check, the span tree
// must nest, and the result line must carry every per-layer metric.
func TestCommandEveryWorkload(t *testing.T) {
	for _, name := range workloads {
		var out bytes.Buffer
		if code := run([]string{"--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1"}, &out); code != 0 {
			t.Fatalf("%s: exit %d\n%s", name, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not the result: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: result %+v", name, res)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m.name)
			}
		}
		if !strings.Contains(out.String(), "0 outside their parent") {
			t.Errorf("%s: span nesting check failed:\n%s", name, out.String())
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"--workload", "nope", "--seconds", "1"}, &out); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, output %q; want a failure and no result", code, out.String())
	}
}

func TestAnalyzeChecksNesting(t *testing.T) {
	r := newRecorder()
	r.ids.Store(100) // ids below are set by hand
	r.add(span{ID: 1, Req: 1, Name: "client", Start: 0, End: 100})
	r.add(span{ID: 2, Parent: 1, Req: 1, Name: "http", Start: 10, End: 90})
	r.add(span{ID: 3, Parent: 2, Req: 1, Name: "handler", Start: 20, End: 60, Trace: "t"})
	r.serve = append(r.serve, serveSpan{trace: "t", name: "compute", start: 5, dur: 10})
	r.add(span{ID: 4, Name: "store.get", Start: 40, End: 50, Cands: []int64{1}})
	rep := r.analyze()
	if rep.violations != 0 || rep.checked != 4 {
		t.Fatalf("checked %d, violations %d; want 4 and 0", rep.checked, rep.violations)
	}
	// handler self: 40 minus compute [25,35] and store.get [40,50].
	if got := rep.self["handler"][0]; got != 0.020 {
		t.Fatalf("handler self %.3f µs, want 0.020", got)
	}
	r.add(span{ID: 5, Parent: 2, Req: 1, Name: "handler", Start: 80, End: 95})
	if rep := r.analyze(); rep.violations != 1 {
		t.Fatalf("a child ending after its parent gave %d violations, want 1", rep.violations)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the command prints in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the command", i, w.Name, workloads[i])
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the command %d/%d", len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in the command", i, m, want)
		}
	}
	for i, m := range bj.PerLayer {
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in the command", i, m, want)
		}
	}
}

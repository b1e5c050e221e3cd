// Command perfbench is the repository's benchmark. It boots the real stack
// in this process on loopback, drives one seeded workload with closed-loop
// clients built on internal/client, checks every response against an
// in-process reference, and prints every metric by name and unit. The last
// line of standard output is one JSON result object.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload engine-miss --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 measures the same workload untraced and then traced, prints
// the tracing overhead and the layer ladder, and reports the per-layer
// metrics. The run exits non-zero when any result fails its check.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
)

// setupReps is how many times a run sets up; setup_s is their median, so
// one set-up slowed by load from outside the benchmark does not move it.
const setupReps = 5

// Client rng streams of the phases (corpus draws per client).
const (
	streamUntraced = 10
	streamTraced   = 11
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func run(args []string, out io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "length of the measured phase, seconds")
	trace := fl.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *wl, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, err := execute(cfg, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is a workload's prepared input: its corpus, the reference bodies and
// canonical keys of its pool items, and (disk-churn) the populated store.
type env struct {
	name string
	c    *corpus
	refs [][]byte
	keys []string
	dir  string
	ref  *refServer
}

func prepare(cfg config, dir string) (*env, error) {
	c, err := newCorpus(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	e := &env{name: cfg.workload, c: c, dir: filepath.Join(dir, "store"), ref: newRefServer()}
	if len(c.pool) > 0 {
		if e.refs, err = e.ref.bodies(c.pool); err != nil {
			e.ref.close()
			return nil, err
		}
		if e.keys, err = canonicalKeys(c.pool); err != nil {
			e.ref.close()
			return nil, err
		}
	}
	if e.name == diskChurn {
		if err := populate(e.dir, e.keys, e.refs); err != nil {
			e.ref.close()
			return nil, err
		}
	}
	return e, nil
}

// start boots the stack and warms it: connections open, and on
// gateway-hot every hot key cached on its owning backend.
func (e *env) start(rec *recorder) (*stack, error) {
	st, err := boot(e.name, e.dir, rec)
	if err != nil {
		return nil, err
	}
	if err := e.warm(st); err != nil {
		st.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return st, nil
}

// warmUps is how many never-seen requests engine-miss sends before timing:
// about half a second of traffic, so set-up time is not dominated by the
// first, cold requests of a fresh process.
const warmUps = 1024

// warm sends the warm-up traffic from every client at once, as the timed
// phase does: engine-miss never-seen items, every gateway-hot key (each
// then cached on its owning backend), or disk-churn batches of never-seen
// items only, so the resident set stays on disk alone.
func (e *env) warm(st *stack) error {
	var n int
	next := func(int) request { it := e.c.nextFresh(); return request{path: it.path, body: it.body} }
	switch e.name {
	case engineMiss:
		n = warmUps
	case gatewayHot:
		n = len(e.c.pool)
		next = func(i int) request { it := e.c.pool[i]; return request{path: it.path, body: it.body} }
	default:
		n = len(st.clients)
		next = func(int) request {
			items := make([]item, batchItems)
			for j := range items {
				items[j] = e.c.nextFresh()
			}
			return request{path: "/v1/batch", body: batchBody(items)}
		}
	}
	errs := make([]error, len(st.clients))
	var wg sync.WaitGroup
	for ci, cl := range st.clients {
		wg.Add(1)
		go func(ci int, cl *client.Client) {
			defer wg.Done()
			for i := ci; i < n && errs[ci] == nil; i += len(st.clients) {
				r := next(i)
				resp, err := cl.Post(context.Background(), st.url+r.path, r.body)
				switch {
				case err != nil:
					errs[ci] = err
				case e.name == gatewayHot && !bytes.Equal(resp.Body, e.refs[i]):
					errs[ci] = fmt.Errorf("%v: body differs from the reference", e.c.pool[i])
				}
			}
		}(ci, cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func execute(cfg config, out io.Writer) (*result, error) {
	dir := runDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	dur := time.Duration(cfg.seconds) * time.Second

	var setups, opens []float64
	var e *env
	var st *stack
	for k := 0; k < setupReps; k++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			e.ref.close()
		}
		t0 := time.Now()
		var err error
		if e, err = prepare(cfg, dir); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if st, err = e.start(nil); err != nil {
			e.ref.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, st.openS)
	}
	defer e.ref.close()

	p := drive(st, e.c, e.refs, e.keys, dur, nil, streamUntraced)
	if err := st.close(); err != nil {
		return nil, err
	}
	var t *traced
	if cfg.trace {
		var err error
		if t, err = runTraced(e, dur, dir); err != nil {
			return nil, err
		}
	}
	p.verify(e.c, e.ref)

	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	e2e := endToEndValues(p, setups)
	prov := provenance(cfg, p, setups)
	if t != nil {
		t.p.verify(e.c, e.ref)
		prov["traced_samples"] = samples(t.p)
	}
	pj, _ := json.Marshal(prov)
	fmt.Fprintf(out, "provenance %s\n", pj)
	printEndToEnd(out, p, e2e, setups)
	printProperties(out, "untraced", p)

	res := &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]value{}}
	printFailures(out, p)
	if t == nil {
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{Value: e2e[m.name], Unit: m.unit}
		}
		return res, nil
	}
	printFailures(out, t.p)
	res.Attempted += t.p.attempted
	res.Failed += t.p.failed
	res.Correct = res.Correct && t.p.failed == 0 && t.rep.violations == 0
	if e.name == diskChurn {
		t.layer["store.open_s"] = median(opens)
	}
	printTraced(out, e.name, p, t, setups)
	for _, m := range perLayer {
		res.Metrics[m.name] = value{Value: t.layer[m.name], Unit: m.unit}
	}
	return res, nil
}

// traced is the traced run: its phase, span report and per-layer metrics.
type traced struct {
	p       *phase
	rep     traceReport
	layer   map[string]float64
	written int
	path    string
}

// runTraced boots the workload's stack again with every seam recording
// spans, drives it for dur with the same corpus and clients, analyzes the
// spans, and replays a corpus sample through each layer directly.
func runTraced(e *env, dur time.Duration, dir string) (*traced, error) {
	rec := newRecorder()
	st, err := e.start(rec)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer st.close()
	before := st.counters()
	rec.reset()
	p := drive(st, e.c, e.refs, e.keys, dur, rec, streamTraced)
	after := st.counters()
	rep := rec.analyze()
	layer, err := replay(e, st, dir)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	d := func(name string) float64 { return after[name] - before[name] }
	lookups := d("serve.cache_hits") + d("serve.disk_hits") + d("serve.cache_misses") + d("serve.coalesced_total")
	layer["serve.lru_hit_ratio"] = ratio(d("serve.cache_hits"), lookups)
	layer["serve.coalesced_total"] = d("serve.coalesced_total")
	layer["serve.shed_total"] = d("serve.shed_total")
	diskGets := d("serve.disk_hits") + d("serve.disk_misses")
	layer["store.disk_hit_ratio"] = ratio(d("serve.disk_hits"), diskGets)
	layer["store.write_drops"] = d("serve.disk_write_drops")
	layer["store.bloom_negative_ratio"] = ratio(d("store.bloom_negatives"), diskGets)
	layer["client.attempts_mean"] = ratio(float64(p.attempts), float64(p.exchanges))
	layer["cluster.failovers_total"] = d("gateway.failovers_total")
	if st.gw != nil {
		var routed []float64
		for _, b := range st.local.Backends() {
			routed = append(routed, d("gateway.routed."+b.Name))
		}
		sort.Float64s(routed)
		layer["cluster.backend_skew"] = ratio(routed[len(routed)-1], sum(routed)/float64(len(routed)))
	}
	if q := rep.dur["queue_wait"]; len(q) > 0 {
		layer["serve.queue_wait_us_p50"] = median(q)
	}
	if st.st != nil {
		layer["store.get_us_p50"] = median(rep.dur["store.get"])
		layer["store.put_us_p50"] = median(rep.dur["store.put"])
	}
	for _, r := range rungs {
		if r.metric != "" {
			layer[r.metric] = median(rep.self[r.span])
		}
	}
	t := &traced{p: p, rep: rep, layer: layer, path: filepath.Join(".bench_build", "spans-"+e.name+".jsonl")}
	if t.written, err = writeSpans(t.path, rep.spans); err != nil {
		return nil, err
	}
	return t, nil
}

// counters snapshots the stack's counters a traced run reports deltas of.
func (s *stack) counters() map[string]float64 {
	out := map[string]float64{}
	for _, n := range []string{"serve.cache_hits", "serve.cache_misses", "serve.coalesced_total", "serve.shed_total",
		"serve.disk_hits", "serve.disk_misses", "serve.disk_write_drops"} {
		out[n] = float64(s.counter(n))
	}
	if s.st != nil {
		out["store.bloom_negatives"] = float64(s.st.Stats().BloomNegatives)
	}
	if s.gw != nil {
		out["gateway.failovers_total"] = float64(s.gw.Metrics().Counter("gateway.failovers_total").Value())
		for _, b := range s.local.Backends() {
			n := "gateway.routed." + b.Name
			out[n] = float64(s.gw.Metrics().Counter(n).Value())
		}
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func delivered(p *phase) int64 { return p.attempted - p.failed }

func endToEndValues(p *phase, setups []float64) map[string]float64 {
	perSec, p50, p90 := p.windowed()
	return map[string]float64{
		"results_per_s":          median(perSec),
		"latency_p50_us":         median(p50),
		"latency_p90_us":         median(p90),
		"setup_s":                median(setups),
		"alloc_bytes_per_result": ratio(float64(p.allocBytes), float64(delivered(p))),
		"heap_live_mb":           p.heapLiveMB,
	}
}

func samples(p *phase) map[string]any {
	return map[string]any{
		"exchanges":       p.exchanges,
		"results":         p.attempted,
		"latency_samples": len(p.lat),
		"checked_by_eval": len(p.sample),
		"checked_by_ref":  p.attempted,
		"elapsed_s":       p.elapsed.Seconds(),
	}
}

// provenance is carried by every record: the host, the toolchain, the
// code, and what was run.
func provenance(cfg config, p *phase, setups []float64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"run_seconds":   cfg.seconds,
		"trace":         cfg.trace,
		"clients":       clients,
		"setup_reps":    len(setups),
		"samples":       samples(p),
	}
}

// sourceDigest hashes every Go source and go.mod under root (hidden
// directories skipped), naming the code measured when no commit is known.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

func printEndToEnd(out io.Writer, p *phase, e2e map[string]float64, setups []float64) {
	n := len(p.lat)
	w := int(p.dur / window)
	notes := map[string]string{
		"results_per_s":          fmt.Sprintf("median of %d %v windows; %d results in %.3f s", w, window, delivered(p), p.elapsed.Seconds()),
		"latency_p50_us":         fmt.Sprintf("median of %d window p50s; n=%d exchanges", w, n),
		"latency_p90_us":         fmt.Sprintf("median of %d window p90s; n=%d exchanges, %d above", w, n, n/10),
		"setup_s":                fmt.Sprintf("median of %d: %s", len(setups), fmtList(setups, "%.3f")),
		"alloc_bytes_per_result": "TotalAlloc delta over the measured phase / results",
		"heap_live_mb":           "HeapAlloc after runtime.GC() at the end of the measured phase",
	}
	for _, m := range endToEnd {
		fmt.Fprintf(out, "%-24s %14.4f %-6s %s\n", m.name, e2e[m.name], m.unit, notes[m.name])
	}
	perSec, p50, _ := p.windowed()
	fmt.Fprintf(out, "%-24s %s\n", "windows results_per_s", fmtList(perSec, "%.0f"))
	fmt.Fprintf(out, "%-24s %s\n", "windows latency_p50_us", fmtList(p50, "%.0f"))
	fmt.Fprintf(out, "%-24s %14.4f %-6s n=%d exchanges, %d above; not gated\n", "latency_p99_us", quantile(p.lat, 0.99), "us", n, n/100)
	fmt.Fprintf(out, "%-24s %14.6f %-6s %d of %d results failed\n", "error_rate", ratio(float64(p.failed), float64(p.attempted)), "ratio", p.failed, p.attempted)
}

// printProperties reports the workload's measured properties: how its
// results were obtained, how many distinct keys it sent, and its size.
func printProperties(out io.Writer, label string, p *phase) {
	var total int64
	for _, v := range p.states {
		total += v
	}
	share := func(k string) float64 { return ratio(float64(p.states[k]), float64(total)) }
	fmt.Fprintf(out, "properties (%s): lru_hit %.4f  disk_hit %.4f  computed %.4f  coalesced %.4f  of %d results; distinct keys %d; mean cells per result %.1f, per request %.1f\n",
		label, share("hit"), share("disk"), share("miss"), share("coalesced"), total, len(p.distinct),
		ratio(float64(p.cells), float64(p.attempted)), ratio(float64(p.cells), float64(p.exchanges)))
}

func printFailures(out io.Writer, p *phase) {
	for _, f := range p.failures {
		fmt.Fprintf(out, "FAILED: %s\n", f)
	}
}

func printTraced(out io.Writer, name string, p *phase, t *traced, setups []float64) {
	u, tr := endToEndValues(p, setups), endToEndValues(t.p, setups)
	fmt.Fprintf(out, "tracing overhead (traced vs untraced):")
	for _, n := range []string{"results_per_s", "latency_p50_us", "latency_p90_us", "alloc_bytes_per_result"} {
		fmt.Fprintf(out, "  %s %+.1f%%", n, 100*(ratio(tr[n], u[n])-1))
	}
	fmt.Fprintln(out)
	printProperties(out, "traced", t.p)
	l := t.layer
	fmt.Fprintf(out, "ladder (%s): live spans (self = span minus the part its child spans cover) | direct replay, one goroutine\n", name)
	fmt.Fprintf(out, "  %-32s %7s %12s %12s | %-24s %10s %8s %9s\n", "rung", "calls", "self_p50_us", "dur_p50_us", "call", "us_p50", "allocs", "bytes")
	for _, r := range rungs {
		self := t.rep.self[r.span]
		fmt.Fprintf(out, "  %-32s %7d %12.2f %12.2f |", r.label, len(self), median(self), median(t.rep.dur[r.span]))
		if r.replay != "" {
			fmt.Fprintf(out, " %-24s %10.2f %8.1f %9.0f", r.call, l[r.replay+"_us_p50"], l[r.replay+"_allocs"], l[r.replay+"_bytes"])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  replay: Heuristic.Map %.2f us  serve.CanonicalKey %.2f us (%.1f allocs)  handler miss %.2f us  batch %.2f us/item  Router.Rank %.2f us\n",
		l["heuristics.map_us_p50"], l["serve.key_us_p50"], l["serve.key_allocs"], l["serve.handler_miss_us_p50"], l["serve.batch_us_per_item"], l["cluster.rank_us_p50"])
	fmt.Fprintf(out, "  derived: http_self %.2f us  gateway_self %.2f us  engine_share %.3f\n", l["ladder.http_self_us"], l["ladder.gateway_self_us"], l["ladder.engine_share"])
	fmt.Fprintf(out, "span nesting: %d child spans checked, %d outside their parent or orphaned\n", t.rep.checked, t.rep.violations)
	fmt.Fprintf(out, "spans: %d recorded, %d written to %s\n", len(t.rep.spans), t.written, t.path)
	fmt.Fprintln(out, "per-layer metrics (moves → on):")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-32s %14.4f %-6s %s → %s\n", m.name, l[m.name], m.unit, m.moves, m.on)
	}
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, ", ")
}

// listen serves h on a fresh loopback listener.
func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	// Connections the clients drop at shutdown are expected.
	hs := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	go func() {
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tiebreak"
)

// replaySize is how many corpus items the direct replay sends through each
// layer, one call at a time from one goroutine.
const replaySize = 96

// calls is one layer's timed calls: per-call µs, and the process-wide
// allocations and bytes per call over the loop.
type calls struct {
	us            []float64
	allocs, bytes float64
}

// timeCalls times f(0..n-1) one call at a time on this goroutine.
func timeCalls(n int, f func(i int) error) (calls, error) {
	c := calls{us: make([]float64, n)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return c, err
		}
		c.us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	runtime.ReadMemStats(&m1)
	if n > 0 {
		c.allocs = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		c.bytes = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	return c, nil
}

// replaySample picks the corpus items the replay uses: the first pool
// items, or never-seen items from an index range no phase reaches.
func replaySample(c *corpus) []item {
	if len(c.pool) > 0 {
		n := replaySize
		if n > len(c.pool) {
			n = len(c.pool)
		}
		return c.pool[:n]
	}
	out := make([]item, replaySize)
	for i := range out {
		out[i] = c.fresh(1<<40 + int64(i))
	}
	return out
}

// parsed is an item decoded the way the server decodes it before compute.
type parsed struct {
	in   *sched.Instance
	h    heuristics.Heuristic
	ties string
	seed uint64
}

func parseItem(it item) (parsed, error) {
	var rq serve.Request
	if err := json.Unmarshal(it.body, &rq); err != nil {
		return parsed{}, err
	}
	m, err := etc.New(rq.ETC)
	if err != nil {
		return parsed{}, err
	}
	in, err := sched.NewInstance(m, rq.Ready)
	if err != nil {
		return parsed{}, err
	}
	h, err := heuristics.ByName(rq.Heuristic, rq.Seed)
	if err != nil {
		return parsed{}, err
	}
	if rq.Seeded {
		h = heuristics.Seeded{Inner: h}
	}
	return parsed{in: in, h: h, ties: rq.Ties, seed: rq.Seed}, nil
}

// policy is the request's tie policy, built fresh per call: random
// policies are stateful streams.
func (p parsed) policy() core.PolicyFunc {
	if p.ties == "random" {
		return core.FixedPolicy(tiebreak.NewRandom(rng.New(p.seed)))
	}
	return core.Deterministic()
}

// replayWriter is a reusable in-process ResponseWriter, so a handler call's
// allocations are the handler's own.
type replayWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *replayWriter) Header() http.Header         { return w.h }
func (w *replayWriter) WriteHeader(code int)        { w.code = code }
func (w *replayWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }

func (w *replayWriter) reset() {
	clear(w.h)
	w.code = http.StatusOK
	w.buf.Reset()
}

// serveAll calls h once per body, requests built before the timed loop.
func serveAll(h http.Handler, paths []string, bodies [][]byte) (calls, error) {
	reqs := make([]*http.Request, len(bodies))
	for i, b := range bodies {
		reqs[i] = httptest.NewRequest(http.MethodPost, paths[i], bytes.NewReader(b))
	}
	w := &replayWriter{h: http.Header{}}
	w.buf.Grow(1 << 20)
	return timeCalls(len(reqs), func(i int) error {
		w.reset()
		h.ServeHTTP(w, reqs[i])
		if w.code != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", paths[i], w.code, bytes.TrimSpace(w.buf.Bytes()))
		}
		return nil
	})
}

// replay sends a corpus sample through each layer's public calls directly
// and returns the per-layer metrics it measures. live is the traced stack:
// on disk-churn its store and server stand in for the workload's disk
// tier and batches; the other workloads get a scratch store.
func replay(e *env, live *stack, dir string) (map[string]float64, error) {
	c := e.c
	out := map[string]float64{}
	sample := replaySample(c)
	ps := make([]parsed, len(sample))
	paths := make([]string, len(sample))
	bodies := make([][]byte, len(sample))
	var iterIdx []int
	for i, it := range sample {
		p, err := parseItem(it)
		if err != nil {
			return nil, err
		}
		ps[i], paths[i], bodies[i] = p, it.path, it.body
		if it.path == "/v1/iterate" {
			iterIdx = append(iterIdx, i)
		}
	}

	// core: core.Iterate on each instance; heuristics: Heuristic.Map on the
	// full instance.
	iterations := 0
	ci, err := timeCalls(len(ps), func(i int) error {
		tr, err := core.Iterate(ps[i].in, ps[i].h, ps[i].policy())
		if err == nil {
			iterations += len(tr.Iterations)
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("core.Iterate: %w", err)
	}
	out["core.iterate_us_p50"] = median(ci.us)
	out["core.iterate_allocs"] = ci.allocs
	out["core.iterate_bytes"] = ci.bytes
	out["core.iterations_mean"] = float64(iterations) / float64(len(ps))
	hm, err := timeCalls(len(ps), func(i int) error {
		_, err := ps[i].h.Map(ps[i].in, ps[i].policy()(0))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("Heuristic.Map: %w", err)
	}
	out["heuristics.map_us_p50"] = median(hm.us)

	// serve: canonical key, then the in-process handler on a fresh server,
	// first call a miss, second a hit.
	keys := make([]string, len(sample))
	kc, err := timeCalls(len(sample), func(i int) error {
		k, ok := serve.CanonicalKey(paths[i], bodies[i])
		if !ok {
			return fmt.Errorf("%v has no canonical key", sample[i])
		}
		keys[i] = k
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["serve.key_us_p50"] = median(kc.us)
	out["serve.key_allocs"] = kc.allocs
	srv := serve.NewServer(serve.Options{})
	defer drainServer(srv)
	miss, err := serveAll(srv.Handler(), paths, bodies)
	if err != nil {
		return nil, fmt.Errorf("handler miss: %w", err)
	}
	hit, err := serveAll(srv.Handler(), paths, bodies)
	if err != nil {
		return nil, fmt.Errorf("handler hit: %w", err)
	}
	out["serve.handler_hit_us_p50"] = median(hit.us)
	out["serve.handler_hit_allocs"] = hit.allocs
	out["serve.handler_hit_bytes"] = hit.bytes
	iterMiss := make([]float64, 0, len(iterIdx))
	iterCore := make([]float64, 0, len(iterIdx))
	for _, i := range iterIdx {
		iterMiss = append(iterMiss, miss.us[i])
		iterCore = append(iterCore, ci.us[i])
	}
	out["serve.handler_miss_us_p50"] = median(miss.us)
	if len(iterIdx) > 0 {
		out["ladder.engine_share"] = median(iterCore) / median(iterMiss)
	}

	// serve batch: the workload's own batches on disk-churn's live server
	// (disk hits and computes as in the run), fresh-server misses elsewhere.
	bsrv := live.srv
	var bpaths []string
	var bbodies [][]byte
	items := 0
	if c.name == diskChurn {
		bsrc := rng.New(mix(c.seed, 7))
		for i := 0; i < replaySize/batchItems; i++ {
			r := c.draw(bsrc)
			bpaths, bbodies = append(bpaths, r.path), append(bbodies, r.body)
			items += len(r.items)
		}
	} else {
		fresh := serve.NewServer(serve.Options{})
		defer drainServer(fresh)
		bsrv = fresh
		for i := 0; i+batchItems <= len(sample); i += batchItems {
			bpaths, bbodies = append(bpaths, "/v1/batch"), append(bbodies, batchBody(sample[i:i+batchItems]))
			items += batchItems
		}
	}
	bc, err := serveAll(bsrv.Handler(), bpaths, bbodies)
	if err != nil {
		return nil, fmt.Errorf("batch: %w", err)
	}
	out["serve.batch_us_per_item"] = sum(bc.us) / float64(items)

	// client + loopback: client.Post to one plain backend on a hit.
	hs, url, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer hs.Close()
	tr := newTransport()
	defer tr.CloseIdleConnections()
	cl := client.New(client.Options{HTTPClient: &http.Client{Transport: tr}, Seed: 1})
	pc, err := timeCalls(len(sample), func(i int) error {
		_, err := cl.Post(context.Background(), url+paths[i], bodies[i])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("client.Post: %w", err)
	}
	out["client.post_hit_us_p50"] = median(pc.us)
	out["client.post_hit_allocs"] = pc.allocs
	out["client.post_hit_bytes"] = pc.bytes

	// cluster: the gateway in-process over two loopback backends, warmed,
	// then timed on hits; Router.Rank on the canonical keys.
	local, err := cluster.StartLocal(2, serve.Options{})
	if err != nil {
		return nil, err
	}
	defer local.Close()
	gtr := newTransport()
	defer gtr.CloseIdleConnections()
	gw, err := cluster.NewGateway(cluster.Options{
		Backends: local.Backends(),
		Client:   client.Options{HTTPClient: &http.Client{Transport: gtr}, Seed: 1},
	})
	if err != nil {
		return nil, err
	}
	if _, err := serveAll(gw.Handler(), paths, bodies); err != nil {
		return nil, fmt.Errorf("gateway warm-up: %w", err)
	}
	gc, err := serveAll(gw.Handler(), paths, bodies)
	if err != nil {
		return nil, fmt.Errorf("gateway hit: %w", err)
	}
	out["cluster.gateway_hit_us_p50"] = median(gc.us)
	out["cluster.gateway_hit_allocs"] = gc.allocs
	out["cluster.gateway_hit_bytes"] = gc.bytes
	rc, _ := timeCalls(len(keys), func(i int) error {
		gw.Router().Rank(keys[i])
		return nil
	})
	out["cluster.rank_us_p50"] = median(rc.us)
	out["ladder.http_self_us"] = out["client.post_hit_us_p50"] - out["serve.handler_hit_us_p50"]
	out["ladder.gateway_self_us"] = out["cluster.gateway_hit_us_p50"] - out["client.post_hit_us_p50"]

	// store: Get on disk-churn's live tier; a scratch store elsewhere.
	st := live.st
	if st == nil {
		refs, err := e.ref.bodies(sample)
		if err != nil {
			return nil, err
		}
		sdir := filepath.Join(dir, "replay-store")
		defer os.RemoveAll(sdir)
		if st, err = store.Open(sdir, store.Options{}); err != nil {
			return nil, err
		}
		put, err := timeCalls(len(keys), func(i int) error { return st.Put(keys[i], refs[i]) })
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("store.Put: %w", err)
		}
		out["store.put_us_p50"] = median(put.us)
		if err := st.Close(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if st, err = store.Open(sdir, store.Options{}); err != nil {
			return nil, err
		}
		out["store.open_s"] = time.Since(t0).Seconds()
		defer st.Close()
	}
	get, err := timeCalls(len(keys), func(i int) error {
		if _, ok, err := st.Get(keys[i]); err != nil || !ok {
			return fmt.Errorf("store.Get %v: ok=%v err=%v", sample[i], ok, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["store.get_us_p50"] = median(get.us)
	out["store.get_allocs"] = get.allocs
	out["store.get_bytes"] = get.bytes
	return out, nil
}

func drainServer(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Drain(ctx)
}

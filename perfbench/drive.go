package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/client"
	"repro/internal/etc"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/serve"
)

// checkEvery is the sampling rate of the independent check: about one
// result in checkEvery is re-evaluated with sched.Evaluate.
const checkEvery = 16

// maxChecked caps the independent-check sample per client and phase. The
// sample is held until the phase ends, so the cap keeps the benchmark's own
// share of heap_live_mb small and the same from run to run.
const maxChecked = 64

// window is the length of one measurement window. Throughput and latency
// percentiles are computed per window and reported as the median over the
// phase's windows, so a burst of load from outside the benchmark skews a
// few windows rather than the whole figure.
const window = time.Second

// pending is a never-seen result whose reference is computed after the
// timed phase: the digest of its body (trailing newline trimmed).
type pending struct {
	fresh  int64
	digest [sha256.Size]byte
}

// checked is a result kept for the independent check.
type checked struct {
	it   item
	body []byte
}

// phase is what one closed-loop phase measured, before verification.
type phase struct {
	dur        time.Duration
	elapsed    time.Duration
	lat        []float64 // µs per HTTP exchange
	end        []float64 // end of each exchange, seconds into the phase
	ok         []int64   // results each exchange delivered
	attempted  int64     // results attempted
	failed     int64     // results failed: transport, status or mismatch
	attempts   int64     // client attempts over all exchanges
	exchanges  int64
	states     map[string]int64 // result count by cache state
	distinct   map[itemKey]bool // distinct items
	cells      int64            // matrix cells over all results
	pend       []pending
	sample     []checked
	allocBytes uint64
	heapLiveMB float64
	failures   []string // first few failure descriptions
}

func newPhase() *phase { return &phase{states: map[string]int64{}, distinct: map[itemKey]bool{}} }

// drive runs clients closed-loop clients for dur. Each client waits for
// its response before sending the next request. refs are the reference
// bodies of pool items; keys their canonical keys, which a traced run
// with a store uses to attribute store reads to requests.
func drive(st *stack, c *corpus, refs [][]byte, keys []string, dur time.Duration, rec *recorder, stream uint64) *phase {
	if rec == nil || st.st == nil {
		keys = nil
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	parts := make([]*phase, len(st.clients))
	done := make(chan int, len(st.clients))
	for i, cl := range st.clients {
		go func(i int, cl *client.Client) {
			parts[i] = runClient(cl, st.url, c, refs, keys, start, dur, rec, rng.New(mix(c.seed, stream, uint64(i))))
			done <- i
		}(i, cl)
	}
	for range st.clients {
		<-done
	}
	p := newPhase()
	p.dur, p.elapsed = dur, time.Since(start)
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - alloc0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.heapLiveMB = float64(ms.HeapAlloc) / (1 << 20)
	for _, q := range parts {
		p.lat = append(p.lat, q.lat...)
		p.end = append(p.end, q.end...)
		p.ok = append(p.ok, q.ok...)
		p.attempted += q.attempted
		p.failed += q.failed
		p.attempts += q.attempts
		p.exchanges += q.exchanges
		p.cells += q.cells
		for k, v := range q.states {
			p.states[k] += v
		}
		for k := range q.distinct {
			p.distinct[k] = true
		}
		p.pend = append(p.pend, q.pend...)
		p.sample = append(p.sample, q.sample...)
		p.failures = append(p.failures, q.failures...)
	}
	return p
}

func runClient(cl *client.Client, url string, c *corpus, refs [][]byte, keys []string, start time.Time, dur time.Duration, rec *recorder, src *rng.Source) *phase {
	p := newPhase()
	for time.Since(start) < dur {
		req := c.draw(src)
		p.attempted += int64(len(req.items))
		for _, it := range req.items {
			p.distinct[it.key()] = true
			p.cells += int64(it.cells)
		}
		ctx := context.Background()
		var root span
		var claimed []string
		if rec != nil {
			root = span{ID: rec.id(), Name: "client"}
			root.Req = root.ID
			ctx = withSpan(ctx, spanCtx{req: root.ID, parent: root.ID})
			if keys != nil {
				claimed = itemKeys(req.items, keys)
				rec.claim(root.ID, claimed)
			}
			root.Start = rec.now()
		}
		t0 := time.Now()
		resp, err := cl.Post(ctx, url+req.path, req.body)
		t1 := time.Now()
		if rec != nil {
			root.End = rec.now()
			rec.add(root)
			rec.release(root.ID, claimed)
		}
		failed := p.failed
		p.exchange(req, resp, err, refs, src)
		p.exchanges++
		p.lat = append(p.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
		p.end = append(p.end, t1.Sub(start).Seconds())
		p.ok = append(p.ok, int64(len(req.items))-(p.failed-failed))
	}
	return p
}

func (p *phase) fail(n int, format string, args ...any) {
	p.failed += int64(n)
	if len(p.failures) < 4 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// exchange checks one response and counts its results.
func (p *phase) exchange(req request, resp *client.Response, err error, refs [][]byte, src *rng.Source) {
	if err != nil {
		var se *client.StatusError
		if errors.As(err, &se) {
			p.attempts++
		}
		p.fail(len(req.items), "%s: %v", req.path, err)
		return
	}
	p.attempts += int64(resp.Attempts)
	if req.path != "/v1/batch" {
		p.states[resp.Cache]++
		body, ok := bytes.CutSuffix(resp.Body, []byte("\n"))
		switch {
		case !ok:
			p.fail(1, "%s: body has no trailing newline", req.path)
		case !p.check(req.items[0], body, refs, src):
			p.fail(1, "%s: body differs from the reference", req.path)
		}
		return
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(resp.Body, &br); err != nil || len(br.Results) != len(req.items) {
		p.fail(len(req.items), "batch: malformed envelope (%v)", err)
		return
	}
	for i, r := range br.Results {
		p.states[r.Cache]++
		switch {
		case r.Status != 200:
			p.fail(1, "batch item %d: status %d: %s", i, r.Status, r.Body)
		case !p.check(req.items[i], r.Body, refs, src):
			p.fail(1, "batch item %d: body differs from the reference", i)
		}
	}
}

// windowed returns, per whole window of the phase, the results delivered
// per second and the latency quantiles of the exchanges that ended in it.
func (p *phase) windowed() (perSec, p50, p90 []float64) {
	n := int(p.dur / window)
	results := make([]int64, n)
	lat := make([][]float64, n)
	for i, e := range p.end {
		w := int(e / window.Seconds())
		if w >= n {
			continue // the exchange in flight at the deadline
		}
		results[w] += p.ok[i]
		lat[w] = append(lat[w], p.lat[i])
	}
	for w := 0; w < n; w++ {
		perSec = append(perSec, float64(results[w])/window.Seconds())
		p50 = append(p50, quantile(lat[w], 0.5))
		p90 = append(p90, quantile(lat[w], 0.9))
	}
	return perSec, p50, p90
}

// check compares a result body (trailing newline trimmed) with its
// reference: pool items inline, never-seen items by digest after the
// phase. It also samples results for the independent check.
func (p *phase) check(it item, body []byte, refs [][]byte, src *rng.Source) bool {
	if len(p.sample) < maxChecked && src.Intn(checkEvery) == 0 {
		p.sample = append(p.sample, checked{it: it, body: append([]byte(nil), body...)})
	}
	if it.pool >= 0 {
		ref := refs[it.pool]
		return bytes.Equal(body, ref[:len(ref)-1])
	}
	p.pend = append(p.pend, pending{fresh: it.fresh, digest: sha256.Sum256(body)})
	return true
}

// itemKeys returns the canonical keys of items: looked up for pool items,
// computed for never-seen ones.
func itemKeys(items []item, keys []string) []string {
	out := make([]string, 0, len(items))
	for _, it := range items {
		if it.pool >= 0 {
			out = append(out, keys[it.pool])
		} else if k, ok := serve.CanonicalKey(it.path, it.body); ok {
			out = append(out, k)
		}
	}
	return out
}

// verify completes a phase's correctness check: every never-seen result
// against a reference computed now, outside the timed phase, and the
// sampled results against sched.Evaluate on the request's matrix.
// Failures count in p.failed.
func (p *phase) verify(c *corpus, ref *refServer) {
	errs := make([]error, len(p.pend))
	parallel(len(p.pend), func(i int) {
		pd := p.pend[i]
		body, err := ref.body(c.fresh(pd.fresh))
		if err != nil {
			errs[i] = err
			return
		}
		if sha256.Sum256(body[:len(body)-1]) != pd.digest {
			errs[i] = fmt.Errorf("never-seen item %d: body differs from the reference", pd.fresh)
		}
	})
	for _, s := range p.sample {
		if err := evaluateCheck(s.it, s.body); err != nil {
			errs = append(errs, err)
		}
	}
	for _, err := range errs {
		if err != nil {
			p.failed++
			if len(p.failures) < 8 {
				p.failures = append(p.failures, err.Error())
			}
		}
	}
}

// evaluateCheck re-evaluates a result's mapping with sched.Evaluate on the
// request's own matrix and requires the reported completion times and
// makespan to match.
func evaluateCheck(it item, body []byte) error {
	var rq serve.Request
	if err := json.Unmarshal(it.body, &rq); err != nil {
		return err
	}
	m, err := etc.New(rq.ETC)
	if err != nil {
		return err
	}
	in, err := sched.NewInstance(m, rq.Ready)
	if err != nil {
		return err
	}
	var assign []int
	var completion []float64
	var makespan float64
	if it.path == "/v1/map" {
		var r serve.MapResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		assign, completion, makespan = r.Assign, r.Completion, r.Makespan
	} else {
		var r serve.IterateResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		assign, completion, makespan = r.FinalAssign, r.FinalCompletion, r.FinalMakespan
	}
	s, err := sched.Evaluate(in, sched.Mapping{Assign: assign})
	if err != nil {
		return fmt.Errorf("%s %v: %v", it.path, it, err)
	}
	if len(s.Completion) != len(completion) {
		return fmt.Errorf("%s %v: %d completion times for %d machines", it.path, it, len(completion), len(s.Completion))
	}
	for j, v := range s.Completion {
		if !approxEqual(v, completion[j]) {
			return fmt.Errorf("%s %v: machine %d completes at %g, response says %g", it.path, it, j, v, completion[j])
		}
	}
	if !approxEqual(s.Makespan(), makespan) {
		return fmt.Errorf("%s %v: makespan %g, response says %g", it.path, it, s.Makespan(), makespan)
	}
	return nil
}

// approxEqual compares with a relative tolerance: the engine may sum a
// machine's tasks in another order than sched.Evaluate does.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

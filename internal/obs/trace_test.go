package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestNilTracerCostsNothing pins the disabled-tracer contract from the
// package note: with no sink configured, the whole span API — StartTrace,
// stage Start/End, setters, Finish — allocates nothing. (Clock reads are
// kept out of the nil path by construction: every time.Now() in trace.go
// sits behind a nil-receiver return.)
func TestNilTracerCostsNothing(t *testing.T) {
	var tracer *Tracer
	if got := NewTracer(nil); got != nil {
		t.Fatal("NewTracer(nil) is not the disabled tracer")
	}
	allocs := testing.AllocsPerRun(200, func() {
		tr := tracer.StartTrace("serve")
		tr.SetKey("some canonical key")
		tr.SetKeyHash(1)
		tr.SetEndpoint("/v1/iterate")
		tr.SetRemote("peer")
		sp := tr.Start("compute")
		sp.SetStatus(200)
		sp.SetCache("hit")
		sp.SetAttempt(1)
		sp.SetErr("")
		sp.End()
		tr.Finish(200, "hit")
		if tr.ID() != "" {
			t.Fatal("nil trace has a non-empty ID")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f per request, want 0", allocs)
	}
}

// TestTraceIDDeterministic: same canonical key + same tracer sequence
// position ⇒ same trace ID, across tracer instances; different keys or
// positions differ.
func TestTraceIDDeterministic(t *testing.T) {
	id := func(seqWarmup int, key string) string {
		tracer := NewTracer(&Collector{})
		for i := 0; i < seqWarmup; i++ {
			tracer.StartTrace("warmup").Finish(0, "")
		}
		tr := tracer.StartTrace("serve")
		tr.SetKey(key)
		got := tr.ID()
		tr.Finish(200, "hit")
		return got
	}
	a, b := id(0, "key-1"), id(0, "key-1")
	if a != b {
		t.Fatalf("same key, same position: %s != %s", a, b)
	}
	if got := id(0, "key-2"); got == a {
		t.Fatalf("different key produced same ID %s", got)
	}
	if got := id(1, "key-1"); got == a {
		t.Fatalf("different sequence position produced same ID %s", got)
	}
	if !strings.Contains(a, "-") || len(a) != 25 {
		t.Fatalf("ID %q not in %%016x-%%08x form", a)
	}
}

// TestSetKeyHashMatchesSetKey: a caller holding only KeyHash(key) — a
// gateway routing a repeat body from its memo — mints the trace ID that
// SetKey(key) and SetKeyBytes(key) mint.
func TestSetKeyHashMatchesSetKey(t *testing.T) {
	key := "/v1/iterate\x00canonical\x00key"
	ids := map[string]bool{}
	for _, set := range []func(*Trace){
		func(tr *Trace) { tr.SetKey(key) },
		func(tr *Trace) { tr.SetKeyBytes([]byte(key)) },
		func(tr *Trace) { tr.SetKeyHash(KeyHash(key)) },
	} {
		tr := NewTracer(&Collector{}).StartTrace("gateway")
		set(tr)
		ids[tr.ID()] = true
	}
	if len(ids) != 1 {
		t.Fatalf("one key minted %d trace IDs: %v", len(ids), ids)
	}
}

// TestTraceSpanTree exercises the emission contract: root span first with
// SpanID 1 carrying status/cache/endpoint, stages with ParentID 1 in end
// order, every span stamped with the trace ID, and nothing emitted before
// Finish.
func TestTraceSpanTree(t *testing.T) {
	col := &Collector{}
	tracer := NewTracer(col)
	tr := tracer.StartTrace("serve")
	tr.SetKey("k")
	tr.SetEndpoint("/v1/iterate")
	tr.SetRemote("client-trace")

	d := tr.Start("decode")
	d.End()
	c := tr.Start("compute")
	c.SetCache("miss")
	c.End()
	if len(col.Events()) != 0 {
		t.Fatal("spans emitted before Finish")
	}
	tr.Finish(200, "miss")
	tr.Finish(200, "miss") // idempotent: no double emission

	events := col.Events()
	if len(events) != 3 {
		t.Fatalf("%d spans emitted, want 3", len(events))
	}
	spans := make([]Span, len(events))
	for i, e := range events {
		sp, ok := e.(Span)
		if !ok {
			t.Fatalf("event %d is %T, want Span", i, e)
		}
		if sp.TraceID != tr.ID() {
			t.Fatalf("span %d trace ID %q, want %q", i, sp.TraceID, tr.ID())
		}
		spans[i] = sp
	}
	root := spans[0]
	if root.SpanID != 1 || root.ParentID != 0 || root.Name != "serve" {
		t.Fatalf("first emitted span is not the root: %+v", root)
	}
	if root.Status != 200 || root.Cache != "miss" || root.Endpoint != "/v1/iterate" || root.Remote != "client-trace" {
		t.Fatalf("root annotations wrong: %+v", root)
	}
	if spans[1].Name != "decode" || spans[2].Name != "compute" {
		t.Fatalf("stage order wrong: %s, %s", spans[1].Name, spans[2].Name)
	}
	for _, sp := range spans[1:] {
		if sp.ParentID != 1 {
			t.Fatalf("stage %s parent %d, want 1", sp.Name, sp.ParentID)
		}
		if sp.Unfinished {
			t.Fatalf("stage %s marked unfinished", sp.Name)
		}
		if sp.StartNS < 0 || sp.DurationNS < 0 || sp.StartNS+sp.DurationNS > root.DurationNS {
			t.Fatalf("stage %s not nested in root: start=%d dur=%d rootDur=%d",
				sp.Name, sp.StartNS, sp.DurationNS, root.DurationNS)
		}
	}
	if spans[2].Cache != "miss" {
		t.Fatalf("compute span lost its cache annotation: %+v", spans[2])
	}
}

// TestTraceForceCloseAndLateEnd: a span still open at Finish is emitted as
// Unfinished (the panic/abandonment path), and an End arriving after Finish
// is dropped rather than emitted twice.
func TestTraceForceCloseAndLateEnd(t *testing.T) {
	col := &Collector{}
	tracer := NewTracer(col)
	tr := tracer.StartTrace("serve")
	orphan := tr.Start("compute")
	tr.Finish(500, "")
	orphan.End() // late: must not re-emit

	events := col.Events()
	if len(events) != 2 {
		t.Fatalf("%d spans emitted, want 2 (root + forced)", len(events))
	}
	forced := events[1].(Span)
	if forced.Name != "compute" || !forced.Unfinished {
		t.Fatalf("open span not force-closed as unfinished: %+v", forced)
	}
	if tr.Start("after") != nil {
		t.Fatal("Start on a finished trace returned a live handle")
	}
}

// TestTraceConcurrentStages hammers one trace from several goroutines (the
// handler/worker sharing pattern in internal/serve); run under -race.
func TestTraceConcurrentStages(t *testing.T) {
	col := &Collector{}
	tracer := NewTracer(col)
	tr := tracer.StartTrace("serve")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.Start("stage")
				sp.SetStatus(200)
				sp.End()
			}
		}()
	}
	wg.Wait()
	tr.Finish(200, "hit")
	if got := len(col.Events()); got != 1+8*50 {
		t.Fatalf("%d spans emitted, want %d", got, 1+8*50)
	}
}

// TestSpanMetricsObserver: finished spans land in per-stage histograms.
func TestSpanMetricsObserver(t *testing.T) {
	m := NewMetrics()
	tracer := NewTracer(NewSpanMetricsObserver(m, "serve"))
	tr := tracer.StartTrace("serve")
	tr.Start("compute").End()
	tr.Finish(200, "miss")

	s := m.Snapshot()
	names := map[string]int{}
	for _, h := range s.Histograms {
		names[h.Name] = h.Total
	}
	if names["serve.stage_serve_ms"] != 1 || names["serve.stage_compute_ms"] != 1 {
		t.Fatalf("stage histograms wrong: %v", names)
	}
}

package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
)

// single is one serve stack behind a real loopback listener, driven by one
// resilient client for the whole run, so the breaker sees the full request
// stream.
type single struct {
	r       *run
	srv     *serve.Server
	reg     *obs.Metrics
	handler atomic.Pointer[http.Handler]
	hs      *http.Server
	base    string
	tr      *http.Transport
	cl      *client.Client
	posts   int // resilient-client Posts: each must yield exactly one client root span
	// events and the per-side span streams; spans collect separately so
	// span conservation compares each stream against its own arrivals.
	events, serveSpans, clientSpans obs.Collector
}

func (s *single) up() error {
	sc := s.r.sc
	s.reg = obs.NewMetrics()
	s.srv = serve.NewServer(serve.Options{
		Workers:    2,
		QueueDepth: 256,
		Metrics:    s.reg,
		Observer:   &s.events,
		Tracer:     obs.NewTracer(&s.serveSpans),
		PanicTrigger: func(seed uint64) {
			if seed == PanicSeed {
				panic("chaos: deliberate panic (sentinel seed)")
			}
		},
	})
	// The phase boundary is a handler swap: the serve stack stays up the
	// whole run while each phase wraps it in that phase's fault injector.
	s.swap(s.srv.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("chaos: listen: %w", err)
	}
	s.hs = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*s.handler.Load()).ServeHTTP(w, r)
		}),
		// Severed connections are the drop fault doing its job, not noise.
		ErrorLog: log.New(io.Discard, "", 0),
	}
	go s.hs.Serve(ln)
	s.r.atExit = append(s.r.atExit, func() { s.hs.Close() })
	s.base = "http://" + ln.Addr().String()

	// Keep-alives must stay off for the whole run (the gateway ships
	// pooled connections; chaos cannot): net/http silently replays a
	// request whose reused connection dies before any response byte
	// arrives, and that hidden extra arrival would shift the
	// injector's seeded decision stream nondeterministically. With one
	// fresh connection per request, every arrival at the injector is one
	// the harness sent.
	s.tr = &http.Transport{DisableKeepAlives: true}

	// Fault-free goldens, computed through the same listener before any
	// phase: the reference bytes every later 200 must match.
	plain := &http.Client{Timeout: 30 * time.Second, Transport: s.tr}
	for i, b := range s.r.bodies {
		resp, err := plain.Post(s.base+"/v1/iterate", "application/json", bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("chaos: golden request %d: %w", i, err)
		}
		golden, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("chaos: golden request %d: %w", i, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("chaos: golden request %d: status %d: %s", i, resp.StatusCode, golden)
		}
		s.r.goldens = append(s.r.goldens, golden)
	}

	// The 1ns cooldown keeps serial replays deterministic: by the next
	// request the cooldown has always elapsed, so an open breaker always
	// admits exactly one probe. Backoffs are capped at single-digit
	// milliseconds — they shape pacing only.
	threshold := sc.Threshold
	if threshold == 0 {
		threshold = 1 << 20 // effectively untrippable unless the scenario asks
	}
	s.cl = client.New(client.Options{
		MaxRetries:       sc.MaxRetries,
		BaseBackoff:      time.Millisecond,
		MaxBackoff:       2 * time.Millisecond,
		Timeout:          10 * time.Second,
		Seed:             sc.Seed,
		BreakerThreshold: threshold,
		BreakerCooldown:  time.Nanosecond,
		HTTPClient:       &http.Client{Transport: s.tr},
		Metrics:          s.reg,
		Observer:         &s.events,
		Tracer:           obs.NewTracer(&s.clientSpans),
	})
	return nil
}

func (s *single) swap(h http.Handler) { s.handler.Store(&h) }

func (s *single) enter(pi int, ph Phase) error {
	if ph.Faults == "" {
		return s.heal()
	}
	// Each phase's injector draws from its own derived seed so the fault
	// decision stream is fixed per (scenario seed, phase).
	spec, err := faults.Parse(fmt.Sprintf("seed=%d,%s", s.r.sc.Seed+uint64(pi)+1, ph.Faults))
	if err != nil {
		return err
	}
	s.swap(faults.New(spec, s.srv.Handler(), s.reg))
	return nil
}

func (s *single) heal() error {
	s.swap(s.srv.Handler())
	return nil
}

func (s *single) post(path string, body []byte) exchange {
	s.posts++
	resp, err := s.cl.Post(context.Background(), s.base+path, body)
	var se *client.StatusError
	switch {
	case err == nil:
		return exchange{status: resp.Status, body: resp.Body}
	case errors.Is(err, client.ErrBreakerOpen):
		return exchange{fastFail: true}
	case errors.As(err, &se):
		return exchange{status: se.Status, body: se.Body}
	}
	return exchange{}
}

func (s *single) settle(string, bool) {}

func (s *single) drive() error {
	r := s.r
	if err := r.phases(s); err != nil {
		return err
	}
	// Quiesce: stop accepting, drain the worker pool, release idle conns.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("chaos: shutdown: %w", err)
	}
	if err := s.srv.Drain(ctx); err != nil {
		return fmt.Errorf("chaos: drain: %w", err)
	}
	s.tr.CloseIdleConnections()

	counters := countersOf(s.reg)
	r.rep.Panics = counters["serve.panics_total"]
	r.rep.BreakerTransitions = transitionsOf(&s.events)
	total := r.conserved(counters, "serve")
	r.quiesced(s.reg)
	r.recovered("fault-free")
	r.check("panics_accounted", (r.rep.Panics > 0) == (r.panics > 0),
		fmt.Sprintf("serve.panics_total=%d for %d scheduled panic requests", r.rep.Panics, r.panics))
	r.check("breaker_legal", breakerLegal(r.rep.BreakerTransitions),
		fmt.Sprintf("%d transitions: %s", len(r.rep.BreakerTransitions), strings.Join(r.rep.BreakerTransitions, " ")))
	// Span conservation: exactly one well-formed span tree per request on
	// each side — server roots match serve arrivals (requests_total covers
	// goldens, retries and faulted arrivals alike; requests the injector
	// answered without reaching serve produce no serve trace and no count),
	// client roots match resilient-client Posts, and neither stream has a
	// structural violation (several roots, orphan parents, stages past their
	// root), even for rejected, faulted or panicking requests.
	srvSpans := spansOf(&s.serveSpans)
	srvSum := obs.SummarizeSpans(srvSpans)
	clSum := obs.SummarizeSpans(spansOf(&s.clientSpans))
	spanDetail := fmt.Sprintf("server %d roots for %d arrivals, client %d roots for %d posts",
		srvSum.Roots, total, clSum.Roots, s.posts)
	if !srvSum.WellFormed() || !clSum.WellFormed() {
		spanDetail += "; malformed: " + strings.Join(append(srvSum.Malformed, clSum.Malformed...), "; ")
	}
	r.check("span_conservation",
		srvSum.WellFormed() && clSum.WellFormed() && int64(srvSum.Roots) == total && clSum.Roots == s.posts,
		spanDetail)
	// Batch children conserve too: batch_split and batch_merge bracket the
	// per-item fan-out and must pair one-to-one on every served batch (the
	// whole-envelope cache fast path legitimately emits neither).
	splits, merges := 0, 0
	for _, sp := range srvSpans {
		switch sp.Name {
		case "batch_split":
			splits++
		case "batch_merge":
			merges++
		}
	}
	r.check("batch_spans", splits == merges,
		fmt.Sprintf("%d batch_split vs %d batch_merge spans", splits, merges))
	return nil
}

// legalBreakerEdges is the breaker's state machine: closed trips open, open
// cools into a half-open probe, and the probe's outcome decides.
var legalBreakerEdges = map[string]bool{
	"closed->open":      true,
	"open->half-open":   true,
	"half-open->closed": true,
	"half-open->open":   true,
}

// breakerLegal verifies the observed transition sequence walks the legal
// state machine from closed and, if the breaker tripped at all, ends closed
// (the recovery phase must have healed it).
func breakerLegal(transitions []string) bool {
	state := "closed"
	for _, tr := range transitions {
		if !legalBreakerEdges[tr] {
			return false
		}
		from, to, _ := strings.Cut(tr, "->")
		if from != state {
			return false
		}
		state = to
	}
	return state == "closed"
}

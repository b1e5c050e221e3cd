package chaos

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/serve"
)

// clustered is a gateway over Backends in-process backends. Its goldens
// come from a separate single instance, so the "responses" invariant IS the
// subsystem's headline property: every 200 the cluster returns — hit, miss,
// failed-over, merged from a batch fan-out — must be byte-identical to what
// a single instance computes, under fault injection and backend loss. On
// top of that it machine-checks routing stability (fault-free traffic
// serves on each key's rendezvous owner), minimal disruption (with
// backends down, each key serves on its first reachable preference — and
// only keys owned by dead backends move), gateway metrics conservation,
// breaker health and span conservation for the gateway's own trace stream.
type clustered struct {
	r     *run
	local *cluster.Local
	gw    *cluster.Gateway
	tr    *http.Transport
	reg   *obs.Metrics
	// events carries routes and breaker transitions; spans the gateway's
	// trace stream.
	events, spans obs.Collector

	// down tracks the membership the routing check expects: in fault-free
	// phases every routed unit must serve on the first member of its
	// rendezvous ranking not in down.
	down map[string]bool
	// sent holds the key hash of every unit posted since the last settle,
	// derived from the bytes sent, in the order the gateway routes them.
	sent      []uint64
	cursor    int // next unchecked event
	routed    int
	misroutes []string
}

func (c *clustered) up() error {
	sc := c.r.sc
	// Keep-alives stay off end to end, unlike the gateway's shipped
	// pooled transport: net/http silently replays a request whose reused
	// connection died before any response byte arrived, and that hidden
	// extra arrival would shift an injector's seeded decision stream.
	// With one fresh connection per request, every arrival at an injector
	// is one the gateway sent, and a killed backend leaves no reusable
	// connections.
	local, err := cluster.StartLocal(sc.Backends, serve.Options{Workers: 2, QueueDepth: 256})
	if err != nil {
		return err
	}
	c.local = local
	c.r.atExit = append(c.r.atExit, func() { local.Close() })
	c.tr = &http.Transport{DisableKeepAlives: true}
	c.reg = obs.NewMetrics()
	c.down = map[string]bool{}
	c.gw, err = cluster.NewGateway(cluster.Options{
		Backends: local.Backends(),
		Client: client.Options{
			MaxRetries:  sc.MaxRetries,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			Timeout:     10 * time.Second,
			Seed:        sc.Seed,
			// Effectively untrippable: breaker dynamics are the single
			// instance's subject; here every backend walk must be driven by
			// reachability alone so routing stays exactly predictable.
			BreakerThreshold: 1 << 20,
			BreakerCooldown:  time.Nanosecond,
			HTTPClient:       &http.Client{Transport: c.tr},
		},
		Metrics:  c.reg,
		Observer: &c.events,
		Tracer:   obs.NewTracer(&c.spans),
	})
	return err
}

func backendName(i int) string { return fmt.Sprintf("backend-%d", i) }

func (c *clustered) enter(pi int, ph Phase) error {
	for _, idx := range ph.Kill {
		c.local.Kill(idx)
		c.down[backendName(idx)] = true
	}
	for _, idx := range ph.Revive {
		if err := c.local.Revive(idx); err != nil {
			return fmt.Errorf("revive %d: %w", idx, err)
		}
		delete(c.down, backendName(idx))
	}
	for bi := 0; bi < c.r.sc.Backends; bi++ {
		if ph.Faults == "" {
			c.local.SetHandler(bi, nil)
			continue
		}
		// Each (phase, backend) pair gets its own derived injector seed, so
		// every backend's fault decision stream is fixed.
		spec, err := faults.Parse(fmt.Sprintf("seed=%d,%s", c.r.sc.Seed+uint64(pi)*64+uint64(bi)+1, ph.Faults))
		if err != nil {
			return err
		}
		c.local.SetHandler(bi, faults.New(spec, c.local.Server(bi).Handler(), c.reg))
	}
	return nil
}

// heal restores full membership with faults off: a revived backend rejoins
// with its cache warm and its keys return home.
func (c *clustered) heal() error {
	for bi := 0; bi < c.r.sc.Backends; bi++ {
		if !c.local.Alive(bi) {
			if err := c.local.Revive(bi); err != nil {
				return fmt.Errorf("chaos: recovery revive %d: %w", bi, err)
			}
		}
		c.local.SetHandler(bi, nil)
	}
	c.down = map[string]bool{}
	return nil
}

func (c *clustered) post(path string, body []byte) exchange {
	c.sent = append(c.sent, sentKeyHashes(path, body)...)
	return record(c.gw.Handler(), path, body)
}

// sentKeyHashes derives, from the bytes posted alone, the key hash of every
// unit the gateway must route for one post: a singleton's canonical key,
// each item's canonical key in a split batch, and the raw route key for
// bodies without a canonical key and for batches forwarded whole. It never
// consults the gateway, so a gateway that routes by a wrong key hash fails
// the routing check even when it routes consistently.
func sentKeyHashes(path string, body []byte) []uint64 {
	if path != "/v1/batch" {
		key, ok := serve.CanonicalKey(path, body)
		if !ok {
			key = cluster.RawRouteKey(path, body)
		}
		return []uint64{cluster.KeyHash(key)}
	}
	items, ok := serve.SplitBatchItems(body)
	if !ok || len(items) == 0 || len(items) > serve.DefaultMaxBatchItems {
		return []uint64{cluster.KeyHash(cluster.RawRouteKey(path, body))}
	}
	khs := make([]uint64, len(items))
	for i, raw := range items {
		key, ok := serve.BatchItemKey(raw)
		if !ok {
			key = cluster.RawRouteKey("item", raw)
		}
		khs[i] = cluster.KeyHash(key)
	}
	return khs
}

// settle checks every route observed since the last call against the units
// posted since then. Injected faults legitimately push requests past
// reachable backends, so exact routing is only asserted fault-free; faulted
// routes are skipped.
func (c *clustered) settle(where string, exact bool) {
	events := c.events.Events()
	for ; c.cursor < len(events); c.cursor++ {
		rt, ok := events[c.cursor].(obs.GatewayRoute)
		if !ok {
			continue
		}
		if len(c.sent) == 0 {
			if exact {
				c.misroute("%s: key %s routed but never sent", where, rt.KeyHash)
			}
			continue
		}
		kh := c.sent[0]
		c.sent = c.sent[1:]
		if !exact {
			continue
		}
		rank := c.gw.Router().RankHash(kh)
		want := ""
		for _, name := range rank {
			if !c.down[name] {
				want = name
				break
			}
		}
		c.routed++
		switch {
		case rt.KeyHash != fmt.Sprintf("%016x", kh):
			c.misroute("%s: key %s routed, %016x sent", where, rt.KeyHash, kh)
		case rt.Primary != rank[0]:
			c.misroute("%s: key %s primary %s, rendezvous owner %s", where, rt.KeyHash, rt.Primary, rank[0])
		case rt.Served != want:
			c.misroute("%s: key %s served by %q, want first reachable %q", where, rt.KeyHash, rt.Served, want)
		}
	}
	if exact && len(c.sent) > 0 {
		c.misroute("%s: %d sent units never routed", where, len(c.sent))
	}
	c.sent = c.sent[:0]
}

func (c *clustered) misroute(format string, args ...any) {
	if len(c.misroutes) < 16 {
		c.misroutes = append(c.misroutes, fmt.Sprintf(format, args...))
	}
}

func (c *clustered) drive() error {
	r := c.r
	if err := r.phases(c); err != nil {
		return err
	}
	// Quiesce the cluster before reading final state.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.gw.Drain(ctx); err != nil {
		return fmt.Errorf("chaos: gateway drain: %w", err)
	}
	if err := c.local.Close(); err != nil {
		return fmt.Errorf("chaos: cluster close: %w", err)
	}
	c.tr.CloseIdleConnections()

	r.rep.BreakerTransitions = transitionsOf(&c.events)
	routeDetail := fmt.Sprintf("%d routed units served on their first reachable preference", c.routed)
	if len(c.misroutes) > 0 {
		routeDetail = strings.Join(c.misroutes, "; ")
	}
	r.check("routing", len(c.misroutes) == 0 && c.routed > 0, routeDetail)
	total := r.conserved(countersOf(c.reg), "gateway")
	r.recovered("fault-free")
	states := c.gw.BreakerStates()
	var open []string
	for name, st := range states {
		if st != "closed" {
			open = append(open, name+"="+st)
		}
	}
	sort.Strings(open)
	breakerDetail := fmt.Sprintf("all %d backend breakers closed", len(states))
	if len(open) > 0 {
		breakerDetail = strings.Join(open, " ")
	}
	r.check("breakers_closed", len(open) == 0, breakerDetail)
	sum := obs.SummarizeSpans(spansOf(&c.spans))
	spanDetail := fmt.Sprintf("gateway %d roots for %d arrivals", sum.Roots, total)
	if !sum.WellFormed() {
		spanDetail += "; malformed: " + strings.Join(sum.Malformed, "; ")
	}
	r.check("span_conservation", sum.WellFormed() && int64(sum.Roots) == total, spanDetail)
	return nil
}

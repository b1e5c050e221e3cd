package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/serve"
)

// TestNewGatewayDefaultTransport: a gateway given no HTTP client forwards
// over newTransport's pooled connections.
func TestNewGatewayDefaultTransport(t *testing.T) {
	g, err := NewGateway(Options{Backends: []Backend{{Name: "a", URL: "http://127.0.0.1:1"}, {Name: "b", URL: "http://127.0.0.1:2"}}})
	if err != nil {
		t.Fatal(err)
	}
	tr, ok := g.opts.Client.HTTPClient.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("default transport is %T, want *http.Transport", g.opts.Client.HTTPClient.Transport)
	}
	if tr.DisableKeepAlives || !tr.DisableCompression || tr.MaxIdleConnsPerHost != idleConnsPerBackend {
		t.Fatalf("default transport keep-alives off %v, compression off %v, %d idle per host; want pooled, uncompressed, %d",
			tr.DisableKeepAlives, tr.DisableCompression, tr.MaxIdleConnsPerHost, idleConnsPerBackend)
	}
	if g.hc.Timeout <= 0 || g.hc.Transport != tr {
		t.Fatal("introspection probes must share the pool and keep their timeout")
	}
}

// connLog is a RoundTripper over the shipped transport that records, per
// backend host, how many exchanges were attempted and how many of them got
// a reused pooled connection.
type connLog struct {
	base http.RoundTripper
	mu   sync.Mutex
	hits map[string]int // attempts per host
	reus map[string]int // attempts on a reused connection, per host
}

func (c *connLog) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if info.Reused {
			c.mu.Lock()
			c.reus[host]++
			c.mu.Unlock()
		}
	}}
	c.mu.Lock()
	c.hits[host]++
	c.mu.Unlock()
	return c.base.RoundTrip(req.WithContext(httptrace.WithClientTrace(req.Context(), trace)))
}

func (c *connLog) counts(host string) (attempts, reused int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits[host], c.reus[host]
}

// TestGatewayFailoverPooled is the kill → failover → revive arc on pooled
// connections: a backend killed while the gateway holds idle connections to
// it costs at most one failed attempt before the key fails over to its
// next rendezvous backend with byte-identical bytes (computed cold there),
// and once revived it owns the key again on the very next request, served
// from its warm cache. /statusz then reports the arc: one failover, every
// breaker closed, every backend healthy, one routed count per attempt.
func TestGatewayFailoverPooled(t *testing.T) {
	log := &connLog{base: newTransport(), hits: map[string]int{}, reus: map[string]int{}}
	col := &obs.Collector{}
	local, g, refSrv := startCluster(t, 3, Options{
		Observer: col,
		Client: client.Options{
			MaxRetries:       -1,
			BreakerThreshold: -1,
			Timeout:          5 * time.Second,
			Seed:             1,
			HTTPClient:       &http.Client{Transport: log},
		},
	})
	lastRoute := func() obs.GatewayRoute {
		t.Helper()
		events := col.Events()
		r, ok := events[len(events)-2].(obs.GatewayRoute) // route precedes RequestDone
		if !ok {
			t.Fatalf("expected GatewayRoute before RequestDone, got %T", events[len(events)-2])
		}
		return r
	}

	body := iterBody(23)
	key, ok := serve.CanonicalKey("/v1/iterate", []byte(body))
	if !ok {
		t.Fatal("body has no canonical key")
	}
	rank := g.Router().Rank(key)
	var owner int
	fmt.Sscanf(rank[0], "backend-%d", &owner)
	ownerHost := local.Addr(owner)
	_, want := postURL(t, refSrv.URL+"/v1/iterate", body)

	// Warm the pool: sequential requests reuse one idle connection.
	for i := 0; i < 3; i++ {
		rec := postHandler(t, g.Handler(), "/v1/iterate", body)
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("warm request %d: status %d, body differs from the single instance's", i, rec.Code)
		}
	}
	if _, reused := log.counts(ownerHost); reused == 0 {
		t.Fatal("the owner's connections were never reused: the transport does not pool")
	}

	local.Kill(owner)
	before, _ := log.counts(ownerHost)
	rec := postHandler(t, g.Handler(), "/v1/iterate", body)
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("after kill: status %d, body differs from the single instance's: %s", rec.Code, rec.Body.String())
	}
	if after, _ := log.counts(ownerHost); after-before > 1 {
		t.Fatalf("the killed owner cost %d attempts, want at most 1", after-before)
	}
	if r := lastRoute(); r.Primary != rank[0] || r.Served != rank[1] || r.Failovers != 1 {
		t.Fatalf("after kill: route %+v, want primary %s served %s failovers 1", r, rank[0], rank[1])
	}
	if c := rec.Header().Get("X-Schedd-Cache"); c != "miss" {
		t.Fatalf("after kill: cache %q, want miss (the failover backend computes cold)", c)
	}

	if err := local.Revive(owner); err != nil {
		t.Fatal(err)
	}
	rec = postHandler(t, g.Handler(), "/v1/iterate", body)
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("after revive: status %d, body differs from the single instance's", rec.Code)
	}
	if r := lastRoute(); r.Served != rank[0] || r.Failovers != 0 {
		t.Fatalf("after revive: route %+v, want served %s with no failover", r, rank[0])
	}
	if c := rec.Header().Get("X-Schedd-Cache"); c != "hit" {
		t.Fatalf("after revive: cache %q, want hit (the owner kept its warm cache through the kill)", c)
	}

	// Count the attempts before /statusz: its health probes share the
	// logged transport.
	attempts := 0
	for i := range 3 {
		n, _ := log.counts(local.Addr(i))
		attempts += n
	}
	sz := httptest.NewRecorder()
	g.Handler().ServeHTTP(sz, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var st gwStatus
	if err := json.Unmarshal(sz.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz: %v\n%s", err, sz.Body.String())
	}
	var routed int64
	for _, b := range st.Backends {
		if b.Breaker != "closed" || b.Health != "ok" {
			t.Fatalf("statusz backend %s: breaker %q health %q, want closed and ok", b.Name, b.Breaker, b.Health)
		}
		routed += b.Routed
	}
	if len(st.Backends) != 3 || st.Failovers != 1 || routed != int64(attempts) {
		t.Fatalf("statusz: %d backends, %d failovers, %d routed; want 3, 1 and the %d attempts made", len(st.Backends), st.Failovers, routed, attempts)
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/serve"
)

// testClientOptions is the fast-failover client template every gateway test
// uses: no retries (one attempt per backend before failing over), breaker
// disabled, keep-alives off so a killed backend's connections never linger.
func testClientOptions() client.Options {
	return client.Options{
		MaxRetries:       -1,
		BreakerThreshold: -1,
		Timeout:          5 * time.Second,
		Seed:             1,
		HTTPClient:       &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	}
}

// startCluster boots n local backends plus a gateway over them, and a
// separate single-instance reference server for byte-identity comparisons.
func startCluster(t *testing.T, n int, gw Options) (*Local, *Gateway, *httptest.Server) {
	t.Helper()
	local, err := StartLocal(n, serve.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	gw.Backends = local.Backends()
	if gw.Client.HTTPClient == nil {
		gw.Client = testClientOptions()
	}
	g, err := NewGateway(gw)
	if err != nil {
		t.Fatal(err)
	}
	ref := serve.NewServer(serve.Options{Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		ref.Drain(ctx)
	})
	refSrv := httptest.NewServer(ref.Handler())
	t.Cleanup(refSrv.Close)
	return local, g, refSrv
}

func postHandler(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	h.ServeHTTP(rec, req)
	return rec
}

func postURL(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func mapBody(seed uint64) string {
	return fmt.Sprintf(`{"etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min","ties":"random","seed":%d}`, seed)
}

func iterBody(seed uint64) string {
	return fmt.Sprintf(`{"etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"sufferage","ties":"random","seed":%d}`, seed)
}

// TestGatewayByteIdenticalToSingleton is the headline invariant, fault-free
// edition: every response through a 3-backend cluster — success, 400, 413,
// 422, 405 — is byte-identical to the single-instance response. The 413s
// are a singleton over serve.MaxCells and a batch over serve.MaxBatchItems,
// which the gateway forwards whole.
func TestGatewayByteIdenticalToSingleton(t *testing.T) {
	_, g, ref := startCluster(t, 3, Options{})

	row := "[1" + strings.Repeat(",1", (serve.MaxCells+1)/5-1) + "]"
	overCells := `{"etc":[` + row + strings.Repeat(","+row, 4) + `],"heuristic":"met"}`
	items := make([]string, serve.MaxBatchItems+1)
	for i := range items {
		items[i] = `{"endpoint":"map",` + mapBody(uint64(i + 1))[1:]
	}
	overItems := `{"items":[` + strings.Join(items, ",") + `]}`
	cases := []struct {
		name, path, body string
		status           int // 0: any
	}{
		{"map ok", "/v1/map", mapBody(1), 0},
		{"iterate ok", "/v1/iterate", iterBody(2), 0},
		{"map ok 2", "/v1/map", mapBody(3), 0},
		{"malformed", "/v1/map", `{"etc":`, 0},
		{"validation", "/v1/iterate", `{"etc":[[-1]],"heuristic":"min-min"}`, 0},
		{"unknown heuristic", "/v1/map", `{"etc":[[1]],"heuristic":"nope"}`, 0},
		{"over MaxCells", "/v1/map", overCells, http.StatusRequestEntityTooLarge},
		{"over MaxBatchItems", "/v1/batch", overItems, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantStatus, wantBody := postURL(t, ref.URL+tc.path, tc.body)
			if tc.status != 0 && wantStatus != tc.status {
				t.Fatalf("single instance answered %d, want %d: %.200s", wantStatus, tc.status, wantBody)
			}
			rec := postHandler(t, g.Handler(), tc.path, tc.body)
			if rec.Code != wantStatus {
				t.Fatalf("status %d, single instance %d: %s", rec.Code, wantStatus, rec.Body.String())
			}
			if rec.Body.String() != wantBody {
				t.Fatalf("body differs from single instance:\n got %q\nwant %q", rec.Body.String(), wantBody)
			}
		})
	}

	// 405 parity, method-level.
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/map", nil))
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Fatalf("GET /v1/map: status %d Allow %q", rec.Code, rec.Header().Get("Allow"))
	}
}

// TestGatewayRejectsTrailingData: a body with a closing bracket or brace
// (or anything else) after its value has no canonical key, so the gateway
// routes it by raw bytes and relays the owner's 400 — byte-identical to a
// single instance — for singletons and batch envelopes alike.
func TestGatewayRejectsTrailingData(t *testing.T) {
	_, g, ref := startCluster(t, 2, Options{})
	for _, tc := range []struct{ path, body string }{
		{"/v1/iterate", `{"etc":[[1,2]],"heuristic":"min-min"}]]]garbage`},
		{"/v1/map", mapBody(1) + "}"},
		{"/v1/batch", `{"items":[{"endpoint":"map","etc":[[1,2]],"heuristic":"min-min"}]}]`},
	} {
		if _, ok := serve.CanonicalKey(tc.path, []byte(tc.body)); ok {
			t.Errorf("%s: CanonicalKey keyed a body with trailing data", tc.path)
		}
		wantStatus, wantBody := postURL(t, ref.URL+tc.path, tc.body)
		rec := postHandler(t, g.Handler(), tc.path, tc.body)
		if wantStatus != http.StatusBadRequest || !strings.Contains(wantBody, "trailing data") {
			t.Errorf("%s: single instance answered %d %s, want 400 trailing data", tc.path, wantStatus, wantBody)
		}
		if rec.Code != wantStatus || rec.Body.String() != wantBody {
			t.Errorf("%s: gateway %d %q, single instance %d %q", tc.path, rec.Code, rec.Body.String(), wantStatus, wantBody)
		}
	}
}

// TestGatewayRoutingStability pins warm-cache concentration: the same body
// posted twice routes to the same backend, and the second response is a
// cache hit served with identical bytes.
func TestGatewayRoutingStability(t *testing.T) {
	col := &obs.Collector{}
	_, g, _ := startCluster(t, 4, Options{Observer: col})

	for seed := uint64(1); seed <= 8; seed++ {
		body := iterBody(seed)
		first := postHandler(t, g.Handler(), "/v1/iterate", body)
		second := postHandler(t, g.Handler(), "/v1/iterate", body)
		if first.Code != http.StatusOK || second.Code != http.StatusOK {
			t.Fatalf("seed %d: statuses %d/%d", seed, first.Code, second.Code)
		}
		if first.Body.String() != second.Body.String() {
			t.Fatalf("seed %d: repeat response differs", seed)
		}
		if c := second.Header().Get("X-Schedd-Cache"); c != "hit" {
			t.Fatalf("seed %d: second request cache %q, want hit (stable routing => warm cache)", seed, c)
		}
	}

	// Every route event must record served == primary (no failovers) and the
	// two posts of one body must agree on the backend.
	byKey := map[string]string{}
	for _, e := range col.Events() {
		rt, ok := e.(obs.GatewayRoute)
		if !ok {
			continue
		}
		if rt.Served != rt.Primary || rt.Failovers != 0 {
			t.Fatalf("route %+v: fault-free run must serve on the primary", rt)
		}
		if prev, seen := byKey[rt.KeyHash]; seen && prev != rt.Served {
			t.Fatalf("key %s routed to %s then %s", rt.KeyHash, prev, rt.Served)
		}
		byKey[rt.KeyHash] = rt.Served
	}
	if len(byKey) != 8 {
		t.Fatalf("saw %d distinct keys, want 8", len(byKey))
	}
}

// TestGatewayBatchMirrorsSingleton drives a mixed batch (two endpoints, a
// malformed item, a validation failure, an unknown heuristic) through the
// cluster and through a single instance: per-item status and body must be
// byte-identical, and a failing item is isolated in place.
func TestGatewayBatchMirrorsSingleton(t *testing.T) {
	_, g, ref := startCluster(t, 3, Options{})

	items := []string{
		`{"endpoint":"map","etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min"}`,
		`{"endpoint":"iterate","etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"nope","ties":"det","seed":1}`,
		`{"endpoint":"iterate","etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"sufferage","ties":"random","seed":7}`,
		`{"endpoint":"map","etc":[[-1]],"heuristic":"min-min"}`,
		`{"endpoint":"reduce","etc":[[1]],"heuristic":"min-min"}`,
		`{"endpoint":"iterate","etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min","ties":"random","seed":9}`,
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`

	_, wantRaw := postURL(t, ref.URL+"/v1/batch", body)
	var want serve.BatchResponse
	if err := json.Unmarshal([]byte(wantRaw), &want); err != nil {
		t.Fatalf("single-instance envelope: %v", err)
	}
	rec := postHandler(t, g.Handler(), "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("cluster batch status %d: %s", rec.Code, rec.Body.String())
	}
	var got serve.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("cluster envelope: %v\n%s", err, rec.Body.String())
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%d results, single instance %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if got.Results[i].Status != want.Results[i].Status {
			t.Fatalf("item %d status %d, single instance %d", i, got.Results[i].Status, want.Results[i].Status)
		}
		if string(got.Results[i].Body) != string(want.Results[i].Body) {
			t.Fatalf("item %d body differs:\n got %s\nwant %s", i, got.Results[i].Body, want.Results[i].Body)
		}
	}
	if got.Results[0].Status != http.StatusOK || got.Results[1].Status != http.StatusUnprocessableEntity || got.Results[2].Status != http.StatusOK {
		t.Fatalf("items 0-2 statuses %d %d %d, want the unknown heuristic an isolated 422 between two 200s",
			got.Results[0].Status, got.Results[1].Status, got.Results[2].Status)
	}

	// Batch-level error envelopes forward whole and stay byte-identical too.
	for _, bad := range []string{`{"items":[]}`, `{"items":[`, `{"items":[],"extra":1}`} {
		wantStatus, wantBody := postURL(t, ref.URL+"/v1/batch", bad)
		rec := postHandler(t, g.Handler(), "/v1/batch", bad)
		if rec.Code != wantStatus || rec.Body.String() != wantBody {
			t.Fatalf("batch %q: got %d %q, single instance %d %q", bad, rec.Code, rec.Body.String(), wantStatus, wantBody)
		}
	}
}

// TestGatewayFailover kills a key's owning backend and posts again: the
// request must land on the key's first failover with identical bytes, and
// after a revive the key must return to its owner.
func TestGatewayFailover(t *testing.T) {
	col := &obs.Collector{}
	local, g, _ := startCluster(t, 3, Options{Observer: col})

	body := iterBody(11)
	key, ok := serve.CanonicalKey("/v1/iterate", []byte(body))
	if !ok {
		t.Fatal("body has no canonical key")
	}
	rank := g.Router().Rank(key)
	baseline := postHandler(t, g.Handler(), "/v1/iterate", body)
	if baseline.Code != http.StatusOK {
		t.Fatalf("baseline status %d", baseline.Code)
	}

	var ownerIdx int
	fmt.Sscanf(rank[0], "backend-%d", &ownerIdx)
	local.Kill(ownerIdx)

	failed := postHandler(t, g.Handler(), "/v1/iterate", body)
	if failed.Code != http.StatusOK {
		t.Fatalf("failover status %d: %s", failed.Code, failed.Body.String())
	}
	if failed.Body.String() != baseline.Body.String() {
		t.Fatalf("failover response differs from baseline:\n got %q\nwant %q", failed.Body.String(), baseline.Body.String())
	}
	events := col.Events()
	last, ok := events[len(events)-2].(obs.GatewayRoute) // route precedes RequestDone
	if !ok {
		t.Fatalf("expected GatewayRoute before RequestDone, got %T", events[len(events)-2])
	}
	if last.Primary != rank[0] || last.Served != rank[1] || last.Failovers != 1 {
		t.Fatalf("failover route %+v, want primary %s served %s failovers 1", last, rank[0], rank[1])
	}

	if err := local.Revive(ownerIdx); err != nil {
		t.Fatal(err)
	}
	revived := postHandler(t, g.Handler(), "/v1/iterate", body)
	if revived.Code != http.StatusOK || revived.Body.String() != baseline.Body.String() {
		t.Fatalf("post-revive response differs (status %d)", revived.Code)
	}
	if c := revived.Header().Get("X-Schedd-Cache"); c != "hit" {
		t.Fatalf("post-revive cache %q, want hit (owner kept its warm cache through the kill)", c)
	}
	events = col.Events()
	last = events[len(events)-2].(obs.GatewayRoute)
	if last.Served != rank[0] || last.Failovers != 0 {
		t.Fatalf("post-revive route %+v, want served %s failovers 0", last, rank[0])
	}
}

// TestGatewayUpstreamUnavailable kills every backend: singletons get the
// gateway's 503 upstream_unavailable envelope, batch items get it per item
// while the batch itself still merges as a 200.
func TestGatewayUpstreamUnavailable(t *testing.T) {
	local, g, _ := startCluster(t, 2, Options{})
	local.Kill(0)
	local.Kill(1)

	rec := postHandler(t, g.Handler(), "/v1/map", mapBody(1))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	wantEnv := string(append(serve.ErrorEnvelope(serve.CodeUpstreamUnavailable, "no backend reachable"), '\n'))
	if rec.Body.String() != wantEnv {
		t.Fatalf("body %q, want %q", rec.Body.String(), wantEnv)
	}

	batch := `{"items":[{"endpoint":"map","etc":[[1]],"heuristic":"min-min"},{"endpoint":"map","etc":[[2]],"heuristic":"min-min"}]}`
	rec = postHandler(t, g.Handler(), "/v1/batch", batch)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d, want 200 with per-item 503s", rec.Code)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	for i, res := range br.Results {
		if res.Status != http.StatusServiceUnavailable {
			t.Fatalf("item %d status %d, want 503", i, res.Status)
		}
		if string(res.Body) != string(serve.ErrorEnvelope(serve.CodeUpstreamUnavailable, "no backend reachable")) {
			t.Fatalf("item %d body %s", i, res.Body)
		}
	}
}

// TestGatewayBatchFailover kills one backend and drives a batch whose items
// spread across all three: every item must still come back 200 with bytes
// identical to the single-instance run.
func TestGatewayBatchFailover(t *testing.T) {
	local, g, ref := startCluster(t, 3, Options{})

	var items []string
	for seed := uint64(1); seed <= 12; seed++ {
		items = append(items, fmt.Sprintf(`{"endpoint":"iterate","etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min","ties":"random","seed":%d}`, seed))
	}
	body := `{"items":[` + strings.Join(items, ",") + `]}`
	_, wantRaw := postURL(t, ref.URL+"/v1/batch", body)
	var want serve.BatchResponse
	if err := json.Unmarshal([]byte(wantRaw), &want); err != nil {
		t.Fatal(err)
	}

	local.Kill(1)
	rec := postHandler(t, g.Handler(), "/v1/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	var got serve.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for i := range got.Results {
		if got.Results[i].Status != http.StatusOK {
			t.Fatalf("item %d status %d: %s", i, got.Results[i].Status, got.Results[i].Body)
		}
		if string(got.Results[i].Body) != string(want.Results[i].Body) {
			t.Fatalf("item %d body differs under backend loss:\n got %s\nwant %s", i, got.Results[i].Body, want.Results[i].Body)
		}
	}
}

// TestGatewayDrain pins the refusal envelope and that in-flight work
// completes before Drain returns.
func TestGatewayDrain(t *testing.T) {
	_, g, _ := startCluster(t, 2, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rec := postHandler(t, g.Handler(), "/v1/map", mapBody(1))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	want := string(append(serve.ErrorEnvelope(serve.CodeDraining, "draining"), '\n'))
	if rec.Body.String() != want {
		t.Fatalf("body %q, want %q", rec.Body.String(), want)
	}
}

// TestGatewayIntrospection exercises /healthz, /statusz and /metricz
// aggregation, including the degraded state after a kill.
func TestGatewayIntrospection(t *testing.T) {
	local, g, _ := startCluster(t, 2, Options{})
	postHandler(t, g.Handler(), "/v1/map", mapBody(1))

	getJSON := func(path string, into any) int {
		t.Helper()
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("GET %s: %v\n%s", path, err, rec.Body.String())
		}
		return rec.Code
	}

	var h gwHealth
	if code := getJSON("/healthz", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz: %d %+v", code, h)
	}
	local.Kill(1)
	if getJSON("/healthz", &h); h.Status != "degraded" || h.Backends["backend-1"] != "unreachable" {
		t.Fatalf("healthz after kill: %+v", h)
	}

	var st gwStatus
	getJSON("/statusz", &st)
	if st.RequestsTotal < 1 || len(st.Backends) != 2 {
		t.Fatalf("statusz: %+v", st)
	}
	for _, b := range st.Backends {
		if b.Breaker == "" {
			t.Fatalf("statusz backend %s has no breaker state", b.Name)
		}
	}
	if got := st.Responses2xx + st.Responses4xx + st.Responses5xx; got != st.RequestsTotal {
		t.Fatalf("statusz outcome conservation: %d outcomes for %d requests", got, st.RequestsTotal)
	}

	var mz struct {
		Gateway  json.RawMessage            `json:"gateway"`
		Backends map[string]json.RawMessage `json:"backends"`
	}
	getJSON("/metricz", &mz)
	if len(mz.Gateway) == 0 || len(mz.Backends) != 2 {
		t.Fatalf("metricz: gateway %d bytes, %d backends", len(mz.Gateway), len(mz.Backends))
	}
	if string(mz.Backends["backend-1"]) != "null" {
		t.Fatalf("killed backend's metricz = %s, want null", mz.Backends["backend-1"])
	}
}

// TestGatewayRejectsBadConfig covers constructor validation.
func TestGatewayRejectsBadConfig(t *testing.T) {
	if _, err := NewGateway(Options{}); err == nil {
		t.Fatal("NewGateway with no backends succeeded")
	}
	if _, err := NewGateway(Options{Backends: []Backend{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Fatal("NewGateway with duplicate names succeeded")
	}
}

// TestGatewayDiskStatusAggregation: backends running a disk result tier
// surface their tier health state and write-drop counts in the aggregated
// /statusz rows; storeless backends omit the fields entirely.
func TestGatewayDiskStatusAggregation(t *testing.T) {
	local, err := StartLocalStores(2, serve.Options{Workers: 2}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { local.Close() })
	g, err := NewGateway(Options{Backends: local.Backends(), Client: testClientOptions()})
	if err != nil {
		t.Fatal(err)
	}
	postHandler(t, g.Handler(), "/v1/map", mapBody(1))

	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	var st gwStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("statusz: %v\n%s", err, rec.Body.String())
	}
	if len(st.Backends) != 2 {
		t.Fatalf("statusz backends: %+v", st.Backends)
	}
	for _, b := range st.Backends {
		if b.DiskHealth != "healthy" {
			t.Fatalf("backend %s disk_health = %q, want healthy", b.Name, b.DiskHealth)
		}
	}

	// Storeless cluster: the fields never appear in the JSON at all.
	_, g2, _ := startCluster(t, 1, Options{})
	rec2 := httptest.NewRecorder()
	g2.Handler().ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/statusz", nil))
	if strings.Contains(rec2.Body.String(), "disk_health") {
		t.Fatalf("storeless statusz leaks disk fields:\n%s", rec2.Body.String())
	}
	var st2 gwStatus
	if err := json.Unmarshal(rec2.Body.Bytes(), &st2); err != nil {
		t.Fatal(err)
	}
	for _, b := range st2.Backends {
		if b.DiskHealth != "" || b.DiskWriteDrops != 0 {
			t.Fatalf("storeless backend %s reports disk fields: %+v", b.Name, b)
		}
	}
}

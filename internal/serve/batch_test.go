package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rng"
)

// batchBody wraps item JSON fragments into a /v1/batch body.
func batchBody(items ...string) string {
	return `{"items":[` + strings.Join(items, ",") + `]}`
}

// batchItemJSON builds one batch item from a singleton body by splicing in
// the endpoint discriminator.
func batchItemJSON(endpoint, singletonBody string) string {
	return `{"endpoint":"` + endpoint + `",` + singletonBody[1:]
}

// overCapBatch is a batch of MaxBatchItems+1 distinct iterate items.
func overCapBatch() string {
	items := make([]string, MaxBatchItems+1)
	for i := range items {
		items[i] = batchItemJSON("iterate", iterateBody("min-min", "det", uint64(i+1)))
	}
	return batchBody(items...)
}

func decodeBatch(t *testing.T, body []byte) BatchResponse {
	t.Helper()
	var br BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("decoding batch response: %v\n%s", err, body)
	}
	return br
}

// TestBatchMirrorsSingletons pins the core batch contract: results arrive
// in input order, and every item body is byte-identical to the
// corresponding singleton response body (minus its trailing newline).
func TestBatchMirrorsSingletons(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)

	singles := []struct{ endpoint, body string }{
		{"map", `{"etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min"}`},
		{"iterate", iterateBody("min-min", "det", 1)},
		{"iterate", iterateBody("sufferage", "random", 42)},
		{"map", `{"etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"max-min"}`},
	}
	var want []string
	var items []string
	for _, sg := range singles {
		rec := post(s, "/v1/"+sg.endpoint, sg.body)
		if rec.Code != http.StatusOK {
			t.Fatalf("singleton %s: status %d: %s", sg.endpoint, rec.Code, rec.Body.String())
		}
		want = append(want, strings.TrimSuffix(rec.Body.String(), "\n"))
		items = append(items, batchItemJSON(sg.endpoint, sg.body))
	}

	rec := post(s, "/v1/batch", batchBody(items...))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("batch Content-Type %q", got)
	}
	br := decodeBatch(t, rec.Body.Bytes())
	if len(br.Results) != len(singles) {
		t.Fatalf("%d results for %d items", len(br.Results), len(singles))
	}
	for i, res := range br.Results {
		if res.Status != http.StatusOK {
			t.Fatalf("item %d status %d: %s", i, res.Status, res.Body)
		}
		if string(res.Body) != want[i] {
			t.Fatalf("item %d body differs from singleton response:\n got %s\nwant %s", i, res.Body, want[i])
		}
		// Every singleton ran first, so the canonical cache already holds
		// each item's bytes.
		if res.Cache != "hit" {
			t.Fatalf("item %d cache %q, want hit (pre-warmed)", i, res.Cache)
		}
	}
}

// TestBatchColdThenWarm drives the same batch twice on a cold server: the
// first pass computes (miss/coalesced), the second is served entirely from
// the raw-alias index, and both envelopes carry identical bodies.
func TestBatchColdThenWarm(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)

	var items []string
	for seed := uint64(1); seed <= 8; seed++ {
		items = append(items, batchItemJSON("iterate", iterateBody("min-min", "random", seed)))
	}
	body := batchBody(items...)

	first := post(s, "/v1/batch", body)
	if first.Code != http.StatusOK {
		t.Fatalf("cold batch status %d: %s", first.Code, first.Body.String())
	}
	cold := decodeBatch(t, first.Body.Bytes())
	for i, res := range cold.Results {
		if res.Status != http.StatusOK {
			t.Fatalf("cold item %d status %d: %s", i, res.Status, res.Body)
		}
		if res.Cache != "miss" && res.Cache != "coalesced" && res.Cache != "hit" {
			t.Fatalf("cold item %d cache %q", i, res.Cache)
		}
	}

	second := post(s, "/v1/batch", body)
	warm := decodeBatch(t, second.Body.Bytes())
	for i, res := range warm.Results {
		if res.Cache != "hit" {
			t.Fatalf("warm item %d cache %q, want hit (raw alias)", i, res.Cache)
		}
		if string(res.Body) != string(cold.Results[i].Body) {
			t.Fatalf("item %d bytes differ between cold and warm pass", i)
		}
	}
	if got := counterValue(t, s, "serve.batch_requests_total"); got != 2 {
		t.Fatalf("batch_requests_total %d, want 2", got)
	}
	if got := counterValue(t, s, "serve.batch_items_total"); got != 16 {
		t.Fatalf("batch_items_total %d, want 16", got)
	}
	// Conservation: two batch arrivals = two 2xx responses, whatever the
	// item count.
	if total, ok2 := counterValue(t, s, "serve.requests_total"), counterValue(t, s, "serve.responses_2xx"); total != 2 || ok2 != 2 {
		t.Fatalf("requests/2xx = %d/%d, want 2/2", total, ok2)
	}
}

// TestBatchEnvelopeReplayByteIdentical: a batch whose every item is a
// cache hit stores its whole envelope, and an identical batch is answered
// with exactly the bytes assembly produced.
func TestBatchEnvelopeReplayByteIdentical(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)
	single := iterateBody("min-min", "det", 1)
	if rec := post(s, "/v1/iterate", single); rec.Code != http.StatusOK {
		t.Fatalf("singleton status %d: %s", rec.Code, rec.Body.String())
	}
	body := batchBody(batchItemJSON("iterate", single))
	assembled := post(s, "/v1/batch", body)
	if assembled.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", assembled.Code, assembled.Body.String())
	}
	if _, ok := s.cache.getRaw([]byte(rawHeadBatchEnv + body)); !ok {
		t.Fatal("an all-hit batch left no whole-envelope entry")
	}
	replayed := post(s, "/v1/batch", body)
	if !bytes.Equal(replayed.Body.Bytes(), assembled.Body.Bytes()) {
		t.Fatalf("whole-envelope replay differs:\n%s\n%s", replayed.Body.String(), assembled.Body.String())
	}
}

// TestBatchItemErrorsIsolated: invalid items produce per-item error
// envelopes with the documented codes; their neighbors still succeed and
// the batch itself is 200.
func TestBatchItemErrorsIsolated(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)

	rec := post(s, "/v1/batch", batchBody(
		batchItemJSON("iterate", iterateBody("min-min", "det", 1)),
		`{"endpoint":"reduce","etc":[[1]],"heuristic":"min-min"}`,
		batchItemJSON("map", `{"etc":[[-1]],"heuristic":"min-min"}`),
		`{"endpoint":"map","bogus":true}`,
		batchItemJSON("map", `{"etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min"}`),
	))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	br := decodeBatch(t, rec.Body.Bytes())
	wantStatus := []int{200, 422, 422, 400, 200}
	wantCode := []string{"", CodeValidationFailed, CodeValidationFailed, CodeBadRequest, ""}
	if len(br.Results) != len(wantStatus) {
		t.Fatalf("%d results, want %d", len(br.Results), len(wantStatus))
	}
	for i, res := range br.Results {
		if res.Status != wantStatus[i] {
			t.Fatalf("item %d status %d, want %d: %s", i, res.Status, wantStatus[i], res.Body)
		}
		if wantCode[i] == "" {
			continue
		}
		var er ErrorResponse
		if err := json.Unmarshal(res.Body, &er); err != nil {
			t.Fatalf("item %d error envelope: %v: %s", i, err, res.Body)
		}
		if er.Error.Code != wantCode[i] {
			t.Fatalf("item %d code %q, want %q", i, er.Error.Code, wantCode[i])
		}
		if res.Cache != "" {
			t.Fatalf("item %d: error result carries cache %q", i, res.Cache)
		}
	}
}

// TestBatchValidation pins the batch-level rejections: bad method, bad
// JSON, empty batches, unknown top-level fields, trailing data, and the
// item-count admission cap — every one a structured envelope from the
// closed code set.
func TestBatchValidation(t *testing.T) {
	s := NewServer(Options{})
	defer drain(t, s)

	errCode := func(t *testing.T, body []byte) string {
		t.Helper()
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("error envelope: %v: %s", err, body)
		}
		return er.Error.Code
	}

	if rec := do(s, http.MethodGet, "/v1/batch", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", rec.Code)
	}
	for _, tc := range []struct {
		name   string
		body   string
		status int
		code   string
	}{
		{"malformed", `{"items":[`, http.StatusBadRequest, CodeBadRequest},
		{"not an object", `[1,2]`, http.StatusBadRequest, CodeBadRequest},
		{"unknown field", `{"items":[],"extra":1}`, http.StatusBadRequest, CodeBadRequest},
		{"trailing data", `{"items":[]} {}`, http.StatusBadRequest, CodeBadRequest},
		{"empty", `{"items":[]}`, http.StatusUnprocessableEntity, CodeValidationFailed},
		{"missing items", `{}`, http.StatusUnprocessableEntity, CodeValidationFailed},
		{"over cap", overCapBatch(), http.StatusRequestEntityTooLarge, CodePayloadTooLarge},
	} {
		rec := post(s, "/v1/batch", tc.body)
		if rec.Code != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
		}
		if got := errCode(t, rec.Body.Bytes()); got != tc.code {
			t.Fatalf("%s: code %q, want %q", tc.name, got, tc.code)
		}
	}
}

// TestBatchDrainingRefused: a draining server refuses whole batches with
// the same 503 envelope as singletons.
func TestBatchDrainingRefused(t *testing.T) {
	s := NewServer(Options{})
	drain(t, s)
	rec := post(s, "/v1/batch", batchBody(batchItemJSON("iterate", iterateBody("min-min", "det", 1))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
}

// TestBatchTraceStages: a traced batch emits one root (endpoint /v1/batch)
// with the documented batch stages plus the per-item stages of its items,
// all in one well-formed span tree.
func TestBatchTraceStages(t *testing.T) {
	s, spans, log := tracedServer(Options{})
	defer drain(t, s)

	rec := post(s, "/v1/batch", batchBody(
		batchItemJSON("iterate", iterateBody("min-min", "det", 1)),
		batchItemJSON("iterate", iterateBody("min-min", "det", 1)), // identical: hit or coalesced
		batchItemJSON("map", `{"etc":[[4,9,9],[9,2,2],[9,9,3]],"heuristic":"min-min"}`),
	))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get(TraceHeader)
	if id == "" {
		t.Fatal("batch response missing X-Schedd-Trace")
	}
	all := spansFor(spans, id)
	if len(all) == 0 || all[0].ParentID != 0 {
		t.Fatalf("no batch root span: %+v", all)
	}
	if all[0].Endpoint != "/v1/batch" || all[0].Status != http.StatusOK {
		t.Fatalf("batch root wrong: %+v", all[0])
	}
	names := stageNames(all)
	for _, want := range []string{"decode", "batch_split", "batch_merge", "write", "cache_lookup", "queue_wait", "compute", "marshal"} {
		if !names[want] {
			t.Fatalf("batch trace lacks stage %q: %v", want, names)
		}
	}

	// One access-log record for the whole batch, carrying the item count.
	var dones []obs.RequestDone
	for _, e := range log.Events() {
		if rd, ok := e.(obs.RequestDone); ok {
			dones = append(dones, rd)
		}
	}
	if len(dones) != 1 {
		t.Fatalf("%d request_done events for one batch, want 1", len(dones))
	}
	if dones[0].Endpoint != "/v1/batch" || dones[0].Items != 3 || dones[0].TraceID != id {
		t.Fatalf("batch request_done wrong: %+v", dones[0])
	}
}

// TestBatchTraceDeterministicID: identical batch bodies produce trace IDs
// with the same key half (the batch content is the identity), differing
// only in the arrival sequence.
func TestBatchTraceDeterministicID(t *testing.T) {
	s, _, _ := tracedServer(Options{})
	defer drain(t, s)
	body := batchBody(batchItemJSON("iterate", iterateBody("min-min", "det", 1)))
	id1 := post(s, "/v1/batch", body).Header().Get(TraceHeader)
	id2 := post(s, "/v1/batch", body).Header().Get(TraceHeader)
	keyOf := func(id string) string { return strings.SplitN(id, "-", 2)[0] }
	if id1 == "" || id2 == "" || id1 == id2 || keyOf(id1) != keyOf(id2) {
		t.Fatalf("batch trace IDs %q, %q: want same key half, distinct seq", id1, id2)
	}
}

// TestSplitBatchFastDifferential: the structural splitter and the
// encoding/json fallback must agree — same item extents where the fast path
// claims success, and fast-path refusal on everything the fallback rejects
// or reshapes.
func TestSplitBatchFastDifferential(t *testing.T) {
	cases := []string{
		`{"items":[]}`,
		`{"items":[{"a":1}]}`,
		`{"items":[{"a":1},{"b":[1,2,{"c":"}]"}]}]}`,
		"\n\t {\"items\" : [ {\"a\": 1} , {\"b\":2} ] } \r\n",
		`{"items":[{"s":"quote \" and bracket ]"},{"t":"\\"}]}`,
		`{"items":[1,true,null,"x",[1,2],{"k":{}}]}`,
		`{"items":[{"etc":[[1,2],[3,4]],"heuristic":"min-min","endpoint":"map"}]}`,
		`{"items":[` + batchItemJSON("iterate", iterateBody("min-min", "det", 9)) + `]}`,
		// Refusal cases: malformed or out-of-shape bodies.
		`{"items":[}`,
		`{"items":[{]}`,
		`{"items":[1,]}`,
		`{"items":[],"x":1}`,
		`{"other":[]}`,
		`{"items":[]} trailing`,
		`[]`,
		``,
		`{"items":"nope"}`,
	}
	// Seeded random composite bodies keep the differential honest beyond
	// hand-picked cases.
	src := rng.New(99)
	for n := 0; n < 200; n++ {
		var items []string
		for i := 0; i < src.Intn(5); i++ {
			items = append(items, fmt.Sprintf(`{"seed":%d,"s":"v%d]}\""}`, src.Intn(100), src.Intn(10)))
		}
		cases = append(cases, batchBody(items...))
	}
	for _, body := range cases {
		fast, okFast := splitBatchFast([]byte(body))
		slow, errSlow := splitBatchSlow([]byte(body))
		if !okFast {
			continue // fast path may refuse anything; fallback is authoritative
		}
		if errSlow != nil {
			t.Fatalf("fast accepted what slow rejects (%v): %s", errSlow.msg, body)
		}
		if len(fast) != len(slow) {
			t.Fatalf("item counts differ (%d vs %d): %s", len(fast), len(slow), body)
		}
		for i := range fast {
			if string(fast[i]) != string(slow[i]) {
				t.Fatalf("item %d extent differs:\n fast %s\n slow %s\n body %s", i, fast[i], slow[i], body)
			}
		}
	}
	// The canonical shapes must take the fast path (the whole point).
	for _, body := range cases[:8] {
		if _, ok := splitBatchFast([]byte(body)); !ok {
			t.Fatalf("fast path refused canonical body: %s", body)
		}
	}
}

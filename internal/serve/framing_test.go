package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// chunkThreshold is net/http's response buffer: a handler body larger than
// this without a Content-Length header goes out chunked.
const chunkThreshold = 2048

// postFramed POSTs body over real HTTP and checks the response is framed by
// an exact Content-Length — never chunked — and larger than net/http's
// buffer, so the header (not buffering) is what framed it.
func postFramed(t *testing.T, url, body string, wantStatus int) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, got)
	}
	if len(got) <= chunkThreshold {
		t.Fatalf("POST %s: %d-byte body does not exceed the %d-byte buffer", url, len(got), chunkThreshold)
	}
	if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) {
		t.Fatalf("POST %s: Content-Length %q for a %d-byte body", url, cl, len(got))
	}
	if resp.ContentLength != int64(len(got)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("POST %s: ContentLength %d, TransferEncoding %q; want %d, none",
			url, resp.ContentLength, resp.TransferEncoding, len(got))
	}
	return resp
}

// TestResponsesCarryContentLength: every kind of buffered response — a
// singleton miss and hit, a batch, a whole-envelope hit and an error — is
// sent with Content-Length equal to its body, at sizes that would
// otherwise be chunked.
func TestResponsesCarryContentLength(t *testing.T) {
	s := NewServer(Options{Workers: 2})
	defer drain(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	single := string(matrixBody(64, 8, 7))
	for _, want := range []string{"miss", "hit"} {
		resp := postFramed(t, ts.URL+"/v1/iterate", single, http.StatusOK)
		if got := resp.Header.Get("X-Schedd-Cache"); got != want {
			t.Fatalf("singleton: X-Schedd-Cache %q, want %q", got, want)
		}
	}

	items := make([]string, 16)
	for i := range items {
		items[i] = batchItemJSON("iterate", string(matrixBody(8, 4, uint64(100+i))))
	}
	batch := batchBody(items...)
	postFramed(t, ts.URL+"/v1/batch", batch, http.StatusOK) // items computed
	postFramed(t, ts.URL+"/v1/batch", batch, http.StatusOK) // all hits: envelope stored
	if _, ok := s.cache.getRaw([]byte(rawHeadBatchEnv + batch)); !ok {
		t.Fatal("an all-hit batch left no whole-envelope entry")
	}
	postFramed(t, ts.URL+"/v1/batch", batch, http.StatusOK) // whole-envelope hit

	// 14 cell errors plus heuristic and ties: 16 field errors, the cap.
	long := strings.Repeat("x", 600)
	bad := `{"etc":[` + strings.Repeat(`[-1.2345678901234567e-300,-2.2345678901234567e-300],`, 7) +
		`[1,1]],"heuristic":"` + long + `","ties":"` + long + `"}`
	postFramed(t, ts.URL+"/v1/iterate", bad, http.StatusUnprocessableEntity)
}

package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestGatewayResponsesCarryContentLength: a relayed singleton and a merged
// batch envelope, both larger than net/http's 2 KiB response buffer, leave
// the gateway framed by an exact Content-Length instead of chunked.
func TestGatewayResponsesCarryContentLength(t *testing.T) {
	_, g, _ := startCluster(t, 2, Options{})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	items := make([]string, 16)
	for i := range items {
		items[i] = `{"endpoint":"iterate",` + floatBody(uint64(i + 1))[1:]
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/iterate", sizedFloatBody(64, 8, 99)},
		{"/v1/batch", `{"items":[` + strings.Join(items, ",") + `]}`},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST %s: %v", tc.path, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || len(got) <= 2048 {
			t.Fatalf("POST %s: status %d, %d bytes; want 200 over 2048 bytes", tc.path, resp.StatusCode, len(got))
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(got)) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("POST %s: Content-Length %q, TransferEncoding %q for a %d-byte body",
				tc.path, cl, resp.TransferEncoding, len(got))
		}
	}
}

// TestGatewayReadBodyEnvelopes pins the gateway's inbound body read on
// every framing: a declared length within the limit is read exactly (and a
// body shorter than it is the 400 net/http's own short read produces), a
// declared length over the limit and an over-limit chunked body are the
// backend-identical 413, and a chunked body within the limit is served
// byte-identically to a single instance.
func TestGatewayReadBodyEnvelopes(t *testing.T) {
	const limit = serve.MaxBodyBytes
	_, g, _ := startCluster(t, 2, Options{})
	ref := serve.NewServer(serve.Options{Workers: 1})
	defer ref.Drain(context.Background())
	big := `{"etc":[[1]],"heuristic":"min-min","ties":"` + strings.Repeat("x", limit) + `"}`
	short := string(serve.ErrorEnvelope(serve.CodeBadRequest, "reading body: unexpected EOF")) + "\n"

	for _, tc := range []struct {
		name       string
		body       string
		length     int64 // declared Content-Length; -1 is chunked
		wantStatus int
	}{
		{"exact", mapBody(1), int64(len(mapBody(1))), http.StatusOK},
		{"short", mapBody(1)[:10], int64(len(mapBody(1))), http.StatusBadRequest},
		{"declared-over-limit", big, int64(len(big)), http.StatusRequestEntityTooLarge},
		{"chunked", mapBody(2), -1, http.StatusOK},
		{"chunked-over-limit", big, -1, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			serveOne := func(h http.Handler) *httptest.ResponseRecorder {
				// A bare reader: httptest.NewRequest would derive the
				// length from a *strings.Reader.
				req := httptest.NewRequest(http.MethodPost, "/v1/map", struct{ io.Reader }{strings.NewReader(tc.body)})
				req.ContentLength = tc.length
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				return rec
			}
			// The single instance cannot see a short body (it reads to
			// EOF); everything else it answers byte for byte as the
			// gateway must.
			want := short
			if tc.name != "short" {
				want = serveOne(ref.Handler()).Body.String()
			}
			if rec := serveOne(g.Handler()); rec.Code != tc.wantStatus || rec.Body.String() != want {
				t.Fatalf("status %d body %q; want %d %q", rec.Code, rec.Body.String(), tc.wantStatus, want)
			}
		})
	}
}

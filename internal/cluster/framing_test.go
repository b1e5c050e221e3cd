package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
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

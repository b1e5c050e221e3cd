package cluster

import "net/http"

// idleConnsPerBackend is how many idle connections the default transport
// keeps per backend: the 8 the benchmark harness's gateway has always
// pooled, the one value measured.
const idleConnsPerBackend = 8

// writeBufferSize is each backend connection's write buffer. net/http
// writes a request's head and an in-memory body through it, so a request
// that fits goes out in one write; one that does not is flushed at the
// buffer's edge, and its remainder is copied through a fresh buffer its
// size (net.genericReadFrom), in a second write. net/http's default, 4
// KiB, already splits a 32×8 float matrix (a 4.8 KB body); 16 KiB holds a
// head and about 800 full-precision cells, and costs 16 KiB per pooled
// connection (128 KiB per backend at idleConnsPerBackend).
const writeBufferSize = 16 << 10

// newTransport returns the backend transport a gateway ships with. Its
// connections are pooled: a forwarded request reuses an idle connection
// instead of dialing a fresh one, which halves a warm gateway hit. It asks
// for no compression: backends answer on a local network, and gzip would
// cost both ends CPU for bytes the gateway relays verbatim. Its write
// buffer (writeBufferSize) sends a forwarded request in one write.
//
// A killed backend's pooled connections cost at most one failed attempt:
// net/http replays a request whose reused connection died before any byte
// was written on a fresh connection, whose dial then fails, and the
// gateway fails over along the key's rendezvous order.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: idleConnsPerBackend,
		DisableCompression:  true,
		WriteBufferSize:     writeBufferSize,
	}
}

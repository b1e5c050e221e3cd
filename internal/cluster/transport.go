package cluster

import "net/http"

// idleConnsPerBackend is how many idle connections the default transport
// keeps per backend: the 8 the benchmark harness's gateway has always
// pooled, the one value measured.
const idleConnsPerBackend = 8

// newTransport returns the backend transport a gateway ships with. Its
// connections are pooled: a forwarded request reuses an idle connection
// instead of dialing a fresh one, which halves a warm gateway hit. It asks
// for no compression: backends answer on a local network, and gzip would
// cost both ends CPU for bytes the gateway relays verbatim.
//
// A killed backend's pooled connections cost at most one failed attempt:
// net/http replays a request whose reused connection died before any byte
// was written on a fresh connection, whose dial then fails, and the
// gateway fails over along the key's rendezvous order.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: idleConnsPerBackend,
		DisableCompression:  true,
	}
}

package hcsched

import (
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Horizontal-scale layer (see internal/cluster and cmd/schedgw): a
// deterministic sharded gateway over several schedd backends. Requests
// route by canonical request key through rendezvous (HRW) hashing — the
// same key always lands on the same backend, so every backend's cache
// stays warm for its shard — and /v1/batch posts are split per item,
// fanned out and merged back in input order. A cluster of N backends
// returns byte-identical response bodies to a single instance for every
// request: hit, miss, coalesced, or failed over to the next-ranked
// backend when the owner is unreachable. Cluster chaos scenarios (a
// ChaosScenario with Backends set, replayed by RunChaos) machine-check that
// property under kills, rejoins and fault storms.
type (
	// Gateway fronts a fixed set of schedd backends behind one handler,
	// with aggregated /healthz, /metricz and /statusz.
	Gateway = cluster.Gateway
	// GatewayOptions configures a Gateway: the backend set, the resilient
	// client template used per backend, and observability sinks. Its body
	// and batch-item caps are the backends' own constants, so an over-cap
	// request gets a single instance's 413.
	GatewayOptions = cluster.Options
	// ClusterBackend names one schedd instance and its base URL.
	ClusterBackend = cluster.Backend
	// ClusterRouter is the rendezvous-hashing router: deterministic
	// per-key backend ranking with minimal disruption on membership change.
	ClusterRouter = cluster.Router
	// LocalCluster runs N in-process schedd backends on loopback listeners
	// with per-backend kill/revive — the substrate for tests and
	// schedgw -local.
	LocalCluster = cluster.Local
	// GatewayRouteEvent records one routed unit in an observer: the key
	// hash, the rendezvous-primary backend, the backend that served it and
	// the failover count.
	GatewayRouteEvent = obs.GatewayRoute
)

// ErrCodeUpstreamUnavailable is the gateway's only gateway-originated error
// code: every ranked backend was unreachable for the request's key.
const ErrCodeUpstreamUnavailable = serve.CodeUpstreamUnavailable

// NewGateway validates the backend set and returns a ready Gateway; mount
// its Handler on any *http.Server and call Drain to shut down gracefully.
func NewGateway(opts GatewayOptions) (*Gateway, error) { return cluster.NewGateway(opts) }

// NewClusterRouter builds a rendezvous router over the named members.
func NewClusterRouter(names []string) (*ClusterRouter, error) { return cluster.NewRouter(names) }

// StartLocalCluster boots n in-process schedd backends on ephemeral
// loopback listeners; Close shuts them down and drains their servers.
func StartLocalCluster(n int, opts ServeOptions) (*LocalCluster, error) {
	return cluster.StartLocal(n, opts)
}

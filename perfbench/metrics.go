package main

import (
	"math"
	"sort"
)

// metric is one reported metric. End-to-end metrics carry the bound by
// which a change may worsen them (a share of the parent's median);
// per-layer metrics name the end-to-end metric they should move and the
// workloads where they should move it, or stay flat.
type metric struct {
	name, unit, better string
	bound              float64
	moves, on          string
}

// endToEnd are measured with tracing off. error_rate is printed with them
// but carried in the result line's attempted/failed counts: it is 0 on a
// correct run, and a bound relative to 0 means nothing.
var endToEnd = []metric{
	{name: "results_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "latency_p90_us", unit: "us", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_bytes_per_result", unit: "B", better: "lower", bound: 0.05},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.15},
}

// perLayer are measured by the traced run.
var perLayer = []metric{
	{name: "core.iterate_us_p50", unit: "us", better: "lower", moves: "results_per_s, latency_p50_us", on: "engine-miss (flat: gateway-hot)"},
	{name: "core.iterate_allocs", unit: "count", better: "lower", moves: "results_per_s, latency_p50_us", on: "engine-miss (flat: gateway-hot)"},
	{name: "core.iterate_bytes", unit: "B", better: "lower", moves: "results_per_s, latency_p50_us", on: "engine-miss (flat: gateway-hot)"},
	{name: "core.iterations_mean", unit: "count", better: "lower", moves: "explains core.iterate_us_p50", on: "engine-miss"},
	{name: "heuristics.map_us_p50", unit: "us", better: "lower", moves: "results_per_s", on: "engine-miss (flat: gateway-hot)"},
	{name: "serve.key_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "gateway-hot (flat: engine-miss)"},
	{name: "serve.key_allocs", unit: "count", better: "lower", moves: "latency_p50_us", on: "gateway-hot (flat: engine-miss)"},
	{name: "serve.handler_hit_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "gateway-hot"},
	{name: "serve.handler_hit_allocs", unit: "count", better: "lower", moves: "latency_p50_us", on: "gateway-hot"},
	{name: "serve.handler_hit_bytes", unit: "B", better: "lower", moves: "latency_p50_us", on: "gateway-hot"},
	{name: "serve.handler_miss_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "engine-miss"},
	{name: "serve.batch_us_per_item", unit: "us", better: "lower", moves: "results_per_s", on: "disk-churn"},
	{name: "serve.queue_wait_us_p50", unit: "us", better: "lower", moves: "latency_p90_us", on: "engine-miss"},
	{name: "serve.lru_hit_ratio", unit: "ratio", better: "higher", moves: "results_per_s", on: "gateway-hot ~1, disk-churn low"},
	{name: "serve.coalesced_total", unit: "count", better: "higher", moves: "results_per_s", on: "gateway-hot, disk-churn"},
	{name: "serve.shed_total", unit: "count", better: "lower", moves: "results_per_s", on: "all; stays 0"},
	{name: "store.get_us_p50", unit: "us", better: "lower", moves: "results_per_s", on: "disk-churn (others: scratch store)"},
	{name: "store.get_allocs", unit: "count", better: "lower", moves: "results_per_s", on: "disk-churn (others: scratch store)"},
	{name: "store.get_bytes", unit: "B", better: "lower", moves: "results_per_s", on: "disk-churn (others: scratch store)"},
	{name: "store.put_us_p50", unit: "us", better: "lower", moves: "store.write_drops, then results_per_s", on: "disk-churn (others: scratch store)"},
	{name: "store.open_s", unit: "s", better: "lower", moves: "setup_s", on: "disk-churn (others: scratch store)"},
	{name: "store.disk_hit_ratio", unit: "ratio", better: "higher", moves: "results_per_s", on: "disk-churn (0: no store)"},
	{name: "store.write_drops", unit: "count", better: "lower", moves: "results_per_s", on: "disk-churn (0: no store)"},
	{name: "store.bloom_negative_ratio", unit: "ratio", better: "higher", moves: "results_per_s", on: "disk-churn (0: no store)"},
	{name: "client.post_hit_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "gateway-hot"},
	{name: "client.post_hit_allocs", unit: "count", better: "lower", moves: "latency_p50_us", on: "gateway-hot"},
	{name: "client.post_hit_bytes", unit: "B", better: "lower", moves: "latency_p50_us", on: "gateway-hot"},
	{name: "client.attempts_mean", unit: "count", better: "lower", moves: "error_rate", on: "all; must be 1.0"},
	{name: "cluster.gateway_hit_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "gateway-hot (flat: engine-miss)"},
	{name: "cluster.gateway_hit_allocs", unit: "count", better: "lower", moves: "latency_p50_us", on: "gateway-hot (flat: engine-miss)"},
	{name: "cluster.gateway_hit_bytes", unit: "B", better: "lower", moves: "latency_p50_us", on: "gateway-hot (flat: engine-miss)"},
	{name: "cluster.rank_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "gateway-hot"},
	{name: "cluster.backend_skew", unit: "ratio", better: "lower", moves: "latency_p90_us", on: "gateway-hot (0: no gateway)"},
	{name: "cluster.failovers_total", unit: "count", better: "lower", moves: "error_rate", on: "gateway-hot; must be 0"},
	{name: "ladder.http_self_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "gateway-hot"},
	{name: "ladder.gateway_self_us", unit: "us", better: "lower", moves: "latency_p50_us", on: "gateway-hot"},
	{name: "ladder.engine_share", unit: "ratio", better: "lower", moves: "results_per_s", on: "engine-miss"},
	{name: "ladder.client_self_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "all"},
	{name: "ladder.loopback_self_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "all"},
	{name: "ladder.gateway_hop_self_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "gateway-hot (0: no gateway)"},
	{name: "ladder.backend_hop_self_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "gateway-hot (0: no gateway)"},
	{name: "ladder.handler_self_us_p50", unit: "us", better: "lower", moves: "latency_p50_us", on: "all"},
	{name: "ladder.core_self_us_p50", unit: "us", better: "lower", moves: "results_per_s", on: "engine-miss, disk-churn"},
	{name: "ladder.disk_self_us_p50", unit: "us", better: "lower", moves: "results_per_s", on: "disk-churn (0: no store)"},
}

// rungs are the ladder's rows, core first: the live span whose self time
// each row reports (and the per-layer metric carrying it), and the direct
// replay call timed for the same layer (its per-layer metric prefix).
var rungs = []struct{ span, label, metric, replay, call string }{
	{"compute", "core (serve compute stage)", "ladder.core_self_us_p50", "core.iterate", "core.Iterate"},
	{"queue_wait", "serve queue wait", "", "", ""},
	{"handler", "serve handler", "ladder.handler_self_us_p50", "serve.handler_hit", "Handler().ServeHTTP, hit"},
	{"http", "loopback HTTP", "ladder.loopback_self_us_p50", "client.post_hit", "client.Post, hit"},
	{"client", "client.Post", "ladder.client_self_us_p50", "", ""},
	{"gateway", "gateway handler", "ladder.gateway_hop_self_us_p50", "cluster.gateway_hit", "gateway ServeHTTP, hit"},
	{"backend_http", "gateway→backend loopback+client", "ladder.backend_hop_self_us_p50", "", ""},
	{"store.get", "disk tier Get", "ladder.disk_self_us_p50", "store.get", "Store.Get"},
	{"store.put", "disk tier Put (writer)", "", "", ""},
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

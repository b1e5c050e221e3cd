package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"

	"repro/internal/etc"
	"repro/internal/rng"
)

// Workload names, as BENCHMARK.json lists them.
const (
	engineMiss = "engine-miss"
	gatewayHot = "gateway-hot"
	diskChurn  = "disk-churn"
)

var workloads = []string{engineMiss, gatewayHot, diskChurn}

// The fixed shape of every workload. A later change that claims a gain on
// one of these properties cites the measured shares the run prints.
const (
	// gateway-hot: hot-set size (fits the two backends' default 256-entry
	// LRUs with room to spare) and the Zipf exponent of its popularity.
	hotKeys  = 256
	hotZipfS = 1.0
	// disk-churn: resident set (16× the default LRU), items per batch, and
	// the share of items drawn from the resident set; the rest are new.
	residentKeys  = 4096
	batchItems    = 16
	residentShare = 0.8
)

// An item's cost-setting attributes follow its index, not the seed, so
// every run — and every prefix of a run, such as the warm-up — has the
// same mix: one item in four maps (the rest iterate), the heuristic cycles
// through engineHeuristics, and one iterate item in five uses the paper's
// never-worsen seeding. The seed draws the matrix, its heterogeneity class
// and the tie policy.

// engineShapes are the engine-miss matrix shapes (tasks×machines), one per
// item index modulo 5: the paper's iterative technique runs one heuristic
// per machine, so machine count sets the engine cost.
var engineShapes = [5][2]int{{32, 4}, {32, 4}, {64, 8}, {64, 8}, {128, 16}}

// engineHeuristics are the greedy mappers the workloads draw from. Genitor,
// GA, SA and tabu are left out: one such request costs 1–46 ms and would
// set the pace alone.
var engineHeuristics = []string{"min-min", "max-min", "duplex", "sufferage", "mct", "kpb", "swa"}

// item is one scheduling request: its singleton endpoint and body. A batch
// item is the same body with an "endpoint" discriminator spliced in.
type item struct {
	pool  int   // index into corpus.pool, or -1 for a never-seen item
	fresh int64 // never-seen item index (pool == -1)
	path  string
	body  []byte
	cells int // tasks × machines
}

// itemKey identifies an item within a run.
type itemKey struct {
	pool  int
	fresh int64
}

func (it item) key() itemKey { return itemKey{it.pool, it.fresh} }

func (it item) String() string {
	if it.pool >= 0 {
		return fmt.Sprintf("pool item %d", it.pool)
	}
	return fmt.Sprintf("never-seen item %d", it.fresh)
}

// request is one HTTP exchange a client sends.
type request struct {
	path  string
	body  []byte
	items []item // the request's results: one for a singleton, many for a batch
}

// corpus generates a workload's inputs from its seed. Pool items (the hot
// set, the resident set) are built once; never-seen items are built on
// demand from (seed, index), so a run of any length stays reproducible
// without holding its whole input in memory.
type corpus struct {
	name string
	seed uint64
	pool []item
	cdf  []float64 // gateway-hot: cumulative Zipf popularity over pool
	next atomic.Int64
}

func newCorpus(name string, seed uint64) (*corpus, error) {
	c := &corpus{name: name, seed: seed}
	switch name {
	case engineMiss:
	case gatewayHot:
		// Shape and endpoint follow popularity rank: the top keys carry
		// most of the traffic, so every rank pattern repeats in the top 4.
		src := rng.New(mix(seed, 1))
		for i := 0; i < hotKeys; i++ {
			t, m := 16, 4
			if i%2 == 1 {
				t, m = 32, 8
			}
			path := "/v1/iterate"
			if i/2%2 == 0 {
				path = "/v1/map"
			}
			c.pool = append(c.pool, newItem(src, i, -1, t, m, path))
		}
		total := 0.0
		for i := range c.pool {
			total += 1 / math.Pow(float64(i+1), hotZipfS)
			c.cdf = append(c.cdf, total)
		}
		for i := range c.cdf {
			c.cdf[i] /= total
		}
	case diskChurn:
		src := rng.New(mix(seed, 2))
		for i := 0; i < residentKeys; i++ {
			c.pool = append(c.pool, newItem(src, i, -1, 32, 8, endpointOf(int64(i))))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return c, nil
}

func endpointOf(i int64) string {
	if i%4 == 3 {
		return "/v1/map"
	}
	return "/v1/iterate"
}

// fresh builds never-seen item i. Its request seed carries the index, so
// no two fresh items of a run share a canonical key, and none collides with
// a pool item (pool seeds are below 1<<32).
func (c *corpus) fresh(i int64) item {
	src := rng.New(mix(c.seed, 3, uint64(i)))
	t, m := 32, 8
	if c.name == engineMiss {
		t, m = engineShapes[i%5][0], engineShapes[i%5][1]
	}
	return newItem(src, int(i), i, t, m, endpointOf(i))
}

// nextFresh hands out the run's next never-seen item. The counter is shared
// by every client, so each index is sent once.
func (c *corpus) nextFresh() item { return c.fresh(c.next.Add(1) - 1) }

// draw returns a client's next request, drawing from src (one stream per
// client).
func (c *corpus) draw(src *rng.Source) request {
	switch c.name {
	case engineMiss:
		it := c.nextFresh()
		return request{path: it.path, body: it.body, items: []item{it}}
	case gatewayHot:
		k := sort.SearchFloat64s(c.cdf, src.Float64())
		it := c.pool[min(k, len(c.pool)-1)]
		return request{path: it.path, body: it.body, items: []item{it}}
	default:
		items := make([]item, batchItems)
		for i := range items {
			if src.Float64() < residentShare {
				items[i] = c.pool[src.Intn(len(c.pool))]
			} else {
				items[i] = c.nextFresh()
			}
		}
		return request{path: "/v1/batch", body: batchBody(items), items: items}
	}
}

// newItem builds item number i: a pool item (fresh < 0) or never-seen
// item fresh. Its body holds a tasks×machines matrix in one of the twelve
// heterogeneity classes, drawn from src.
func newItem(src *rng.Source, i int, fresh int64, tasks, machines int, path string) item {
	classes := etc.AllClasses()
	m, err := etc.GenerateClass(classes[src.Intn(len(classes))], tasks, machines, src)
	if err != nil {
		panic(err) // shapes are fixed constants, so generation cannot fail
	}
	ties := "det"
	if src.Float64() < 0.5 {
		ties = "random"
	}
	seed := uint64(i)
	if fresh >= 0 {
		seed = 1<<32 + uint64(fresh)
	}
	b := make([]byte, 0, 20*tasks*machines+96)
	b = append(b, `{"etc":[`...)
	for t := 0; t < m.Tasks(); t++ {
		if t > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j := 0; j < m.Machines(); j++ {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, m.At(t, j), 'g', -1, 64)
		}
		b = append(b, ']')
	}
	b = append(b, `],"heuristic":"`...)
	b = append(b, engineHeuristics[i%len(engineHeuristics)]...)
	b = append(b, `","ties":"`...)
	b = append(b, ties...)
	b = append(b, `","seed":`...)
	b = strconv.AppendUint(b, seed, 10)
	if path == "/v1/iterate" && i/len(engineHeuristics)%5 == 0 {
		b = append(b, `,"seeded":true`...)
	}
	b = append(b, '}')
	pool := i
	if fresh >= 0 {
		pool = -1
	}
	return item{pool: pool, fresh: fresh, path: path, body: b, cells: tasks * machines}
}

// batchItem is a singleton body as a /v1/batch item.
func batchItem(dst []byte, it item) []byte {
	ep := "iterate"
	if it.path == "/v1/map" {
		ep = "map"
	}
	dst = append(dst, `{"endpoint":"`...)
	dst = append(dst, ep...)
	dst = append(dst, `",`...)
	return append(dst, it.body[1:]...)
}

func batchBody(items []item) []byte {
	n := 16
	for _, it := range items {
		n += len(it.body) + 24
	}
	b := append(make([]byte, 0, n), `{"items":[`...)
	for i, it := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = batchItem(b, it)
	}
	return append(b, "]}"...)
}

// mix derives a stream seed from the workload seed and a path of labels
// (splitmix64 finalizer per step), so streams for different purposes never
// overlap.
func mix(seed uint64, labels ...uint64) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, l := range labels {
		h ^= l + 0x9e3779b97f4a7c15 + h<<6 + h>>2
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

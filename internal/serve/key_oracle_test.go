package serve

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/etc"
	"repro/internal/sched"
)

// The canonical key as it was built before the key-first decoder, kept as
// the oracle FuzzCanonicalKey holds the serving builder to (the way
// split_test.go keeps the bytewise splitter): decode with encoding/json,
// validate, construct the instance with etc.New and sched.NewInstance,
// and write the key from the instance's rows and ready times.

// oracleCanonicalKey is CanonicalKey by the oracle's route.
func oracleCanonicalKey(ep string, body []byte) (string, bool) {
	if ep != string(endpointMap) && ep != string(endpointIterate) {
		return "", false
	}
	rq, aerr := decodeRequestSlow(body)
	if aerr != nil {
		return "", false
	}
	return oracleKey(endpoint(ep), rq)
}

// oracleBatchItemKey is BatchItemKey by the oracle's route.
func oracleBatchItemKey(item []byte) (string, bool) {
	it, aerr := decodeBatchItemSlow(item)
	if aerr != nil {
		return "", false
	}
	switch it.Endpoint {
	case "map":
		return oracleKey(endpointMap, it.Request)
	case "iterate":
		return oracleKey(endpointIterate, it.Request)
	}
	return "", false
}

func oracleKey(ep endpoint, rq Request) (string, bool) {
	if validateRequest(rq).total > 0 {
		return "", false
	}
	ties := rq.Ties
	if ties == "" {
		ties = "det"
	}
	m, err := etc.New(rq.ETC)
	if err != nil {
		return "", false
	}
	in, err := sched.NewInstance(m, rq.Ready)
	if err != nil {
		return "", false
	}
	return oracleCacheKey(ep, rq, ties, in), true
}

// oracleCacheKey is the row-based key writer.
func oracleCacheKey(ep endpoint, rq Request, ties string, in *sched.Instance) string {
	m := in.ETC()
	var b strings.Builder
	b.WriteString(string(ep))
	b.WriteByte(0)
	b.WriteString(rq.Heuristic)
	b.WriteByte(0)
	b.WriteString(ties)
	b.WriteByte(0)
	if rq.Seeded {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	var u [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(u[:], x)
		b.Write(u[:])
	}
	put(rq.Seed)
	put(uint64(m.Tasks()))
	put(uint64(m.Machines()))
	for t := 0; t < m.Tasks(); t++ {
		for j := 0; j < m.Machines(); j++ {
			put(math.Float64bits(m.At(t, j)))
		}
	}
	for j := 0; j < in.Machines(); j++ {
		put(math.Float64bits(in.Ready(j)))
	}
	return b.String()
}

// TestInstanceFromKey: the instance a worker decodes from the key is the
// one the oracle constructs from the decoded request — every cell and
// ready time bit for bit — over the key-golden corpus (ready times
// absent, zero, non-zero and -0; shapes up to 128×16).
func TestInstanceFromKey(t *testing.T) {
	var sc reqScratch
	// One compute scratch decodes every body in turn, as a worker's does.
	var csc computeScratch
	checked := 0
	for _, c := range keyCorpus(t) {
		d, aerr := decodeBody([]byte(c.body), false, &sc)
		if aerr != nil {
			continue
		}
		p, aerr := d.admit(c.ep, unguarded)
		if aerr != nil {
			continue
		}
		got, err := p.instance(&csc)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rq, _ := decodeRequestSlow([]byte(c.body))
		want := sched.MustInstance(etc.MustNew(rq.ETC), rq.Ready)
		if !got.ETC().Equal(want.ETC()) || got.Machines() != want.Machines() {
			t.Fatalf("%s: the key's matrix differs from the request's", c.name)
		}
		for j := 0; j < want.Machines(); j++ {
			if math.Float64bits(got.Ready(j)) != math.Float64bits(want.Ready(j)) {
				t.Fatalf("%s: ready[%d] = %v from the key, %v from the request", c.name, j, got.Ready(j), want.Ready(j))
			}
		}
		checked++
	}
	if checked < 150 {
		t.Fatalf("only %d corpus bodies admitted", checked)
	}
}

package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The benchmark corpus mimics the serving tier's shape: canonical request
// keys are long (they encode a whole ETC matrix), bodies are ~1 KiB JSON.
const benchKeys = 2000

func benchKey(i int) string {
	return fmt.Sprintf("bench-key-%06d-%0192d", i, i*7919)
}

func benchBody(i int) []byte {
	b := make([]byte, 1024)
	copy(b, fmt.Sprintf(`{"schema":"bench","seq":%d`, i))
	for j := range b {
		if b[j] == 0 {
			b[j] = byte('a' + (i+j)%26)
		}
	}
	return b
}

func fillStore(b *testing.B) (*Store, string) {
	b.Helper()
	dir := b.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	for i := 0; i < benchKeys; i++ {
		if err := st.Put(benchKey(i), benchBody(i)); err != nil {
			b.Fatalf("Put: %v", err)
		}
	}
	return st, dir
}

// BenchmarkStoreGet measures the hit path: one index probe and one
// CRC-verified record read.
func BenchmarkStoreGet(b *testing.B) {
	st, _ := fillStore(b)
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, ok, err := st.Get(benchKey(i % benchKeys))
		if err != nil || !ok || len(body) != 1024 {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkStoreGetMiss measures the index-miss path — the cost a
// cold cluster pays per request that has never been computed anywhere.
func BenchmarkStoreGetMiss(b *testing.B) {
	st, _ := fillStore(b)
	defer st.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := st.Get(fmt.Sprintf("absent-%d", i)); ok || err != nil {
			b.Fatalf("Get(absent): ok=%v err=%v", ok, err)
		}
	}
}

// putBlock is how many puts BenchmarkStorePut makes on one fresh store.
const putBlock = 256

// BenchmarkStorePut measures the write-behind append path (distinct keys,
// no fsync per record). The puts run in blocks of putBlock, each on a
// fresh store opened (and the previous one closed and deleted) with the
// timer stopped, so every block pays the same index-map growth and B/op
// does not depend on the b.N the run picks; the keys are built before the
// timer starts.
func BenchmarkStorePut(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "store")
	keys := make([]string, putBlock)
	for i := range keys {
		keys[i] = fmt.Sprintf("put-%09d", i)
	}
	body := benchBody(0)
	var st *Store
	fresh := func() {
		b.StopTimer()
		defer b.StartTimer()
		if st != nil {
			if err := st.Close(); err != nil {
				b.Fatalf("Close: %v", err)
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		var err error
		if st, err = Open(dir, Options{}); err != nil {
			b.Fatalf("Open: %v", err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%putBlock == 0 {
			fresh()
		}
		if err := st.Put(keys[i%putBlock], body); err != nil {
			b.Fatalf("Put: %v", err)
		}
	}
	b.StopTimer()
	if st != nil {
		st.Close()
	}
}

// BenchmarkStoreOpenWarm measures cold-start warm-up: replaying and
// re-indexing a populated store directory, the cost a restarted daemon pays
// before its first disk hit.
func BenchmarkStoreOpenWarm(b *testing.B) {
	st, dir := fillStore(b)
	if err := st.Close(); err != nil {
		b.Fatalf("Close: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Open(dir, Options{})
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		if st.Len() != benchKeys {
			b.Fatalf("Len = %d", st.Len())
		}
		b.StopTimer()
		st.Close()
		b.StartTimer()
	}
}

// canonicalBenchKeys returns n distinct real 32×8 canonical keys: the key
// of one seeded /v1/iterate request with its seed word set to first,
// first+1, ... — exactly serve.CanonicalKey of that body at each seed.
func canonicalBenchKeys(b *testing.B, first uint64, n int) []string {
	key := canonicalKey(b, 32, 8, "min-min", 1)
	seedAt := len(key) - 8*(3+32*8+8) // seed, tasks, machines, cells, ready times
	keys := make([]string, n)
	for i := range keys {
		binary.LittleEndian.PutUint64(key[seedAt:], first+uint64(i))
		keys[i] = string(key)
	}
	return keys
}

// BenchmarkStoreGetCanonical is BenchmarkStoreGet keyed by real 2.1 KB
// canonical keys, the shape the serving tier stores: the key hash, one
// index probe and one CRC-verified record read with its key compare.
func BenchmarkStoreGetCanonical(b *testing.B) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer st.Close()
	keys := canonicalBenchKeys(b, 1, benchKeys)
	for i, k := range keys {
		if err := st.Put(k, benchBody(i)); err != nil {
			b.Fatalf("Put: %v", err)
		}
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		body, ok, err := st.Get(keys[i%benchKeys])
		if err != nil || !ok || len(body) != 1024 {
			b.Fatalf("Get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkStoreGetMissCanonical is the index miss for absent canonical
// keys: all of its cost is the key hash and one map probe.
func BenchmarkStoreGetMissCanonical(b *testing.B) {
	st, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	defer st.Close()
	for i, k := range canonicalBenchKeys(b, 1, benchKeys) {
		if err := st.Put(k, benchBody(i)); err != nil {
			b.Fatalf("Put: %v", err)
		}
	}
	absent := canonicalBenchKeys(b, 1<<40, 1024)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, ok, err := st.Get(absent[i%len(absent)]); ok || err != nil {
			b.Fatalf("Get(absent): ok=%v err=%v", ok, err)
		}
	}
}

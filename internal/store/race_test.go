package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentHammer drives Get/Put/Sync/Stats from many goroutines at
// once over a store whose tiny segment threshold forces rotation mid-storm —
// the interleavings the -race detector needs to see. Values are checked, not
// just survived: every Get that reports a hit must return exactly the body
// its key was written with.
func TestConcurrentHammer(t *testing.T) { runFullIndex(t, testConcurrentHammer) }

func testConcurrentHammer(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st.segBytes = 512 // rotate constantly under load
	defer st.Close()

	const (
		writers = 4
		readers = 4
		keys    = 64
		rounds  = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r*writers) % keys
				if err := st.Put(testKey(k), testBody(k)); err != nil {
					t.Errorf("Put(%d): %v", k, err)
					return
				}
				if r%8 == 0 {
					if err := st.Sync(); err != nil {
						t.Errorf("Sync: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds*writers; i++ {
				k := (r + i) % keys
				body, ok, err := st.Get(testKey(k))
				if err != nil {
					t.Errorf("Get(%d): %v", k, err)
					return
				}
				if ok && !bytes.Equal(body, testBody(k)) {
					t.Errorf("Get(%d): wrong body %q", k, body)
					return
				}
				// Absent keys exercise the index-miss path concurrently.
				if _, ok, err := st.Get(fmt.Sprintf("hammer-absent-%d-%d", r, i)); ok || err != nil {
					t.Errorf("absent Get: ok=%v err=%v", ok, err)
					return
				}
				if i%16 == 0 {
					st.Stats()
					st.Len()
				}
			}
		}(r)
	}
	wg.Wait()

	stats := st.Stats()
	if stats.Keys != keys {
		t.Fatalf("Keys = %d, want %d", stats.Keys, keys)
	}
	if stats.Segments < 2 {
		t.Fatalf("Segments = %d, want rotation (≥ 2) under a 512-byte threshold", stats.Segments)
	}
	for k := 0; k < keys; k++ {
		body, ok, err := st.Get(testKey(k))
		if err != nil || !ok || !bytes.Equal(body, testBody(k)) {
			t.Fatalf("final Get(%d) = (%v, %v)", k, ok, err)
		}
	}
}

// TestConcurrentHammerFaulted repeats the hammer over a FaultFS mid-storm:
// injected errors and health transitions may interleave arbitrarily, but the
// store must never return wrong bytes, race, or wedge — and must recover to
// Healthy once the faults stop.
func TestConcurrentHammerFaulted(t *testing.T) {
	st, ffs := openFaulted(t, FaultSpec{Seed: 97, ReadErrP: 0.2, WriteErrP: 0.2, ShortWriteP: 0.1, SyncErrP: 0.2}, 4, 8)
	ffs.SetEnabled(true)

	const (
		workers = 6
		rounds  = 40
		keys    = 32
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % keys
				if w%2 == 0 {
					// Writers tolerate injected errors; bytes must be right
					// when the store accepts the record.
					_ = st.Put(testKey(k), testBody(k))
					if r%8 == 0 {
						_ = st.Sync()
					}
				} else {
					body, ok, err := st.Get(testKey(k))
					if err == nil && ok && !bytes.Equal(body, testBody(k)) {
						t.Errorf("Get(%d): wrong body under faults", k)
						return
					}
				}
				if r%8 == 0 {
					st.ConsultRead()
					st.ConsultWrite()
					st.Stats()
				}
			}
		}(w)
	}
	wg.Wait()

	// Faults off: the store must be able to prove itself healthy again via
	// the probe ladder, whatever state the storm left it in.
	ffs.SetEnabled(false)
	for i := 0; i < 16*DefaultProbeAfter && st.Health() != Healthy; i++ {
		if st.ConsultRead() {
			st.Get(testKey(i % keys))
		}
		if st.ConsultWrite() {
			st.Put(fmt.Sprintf("recover-%d", i), testBody(i))
		}
	}
	if st.Health() != Healthy {
		t.Fatalf("health after fault stop + probes = %v, want healthy", st.Health())
	}
}

package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/rng"
)

func testBody(i int) []byte {
	return []byte(fmt.Sprintf(`{"schema":"test","seq":%d,"payload":"%032d"}`, i, i))
}

func testKey(i int) string { return fmt.Sprintf("key-%04d-%032d", i, i*i) }

// runFullIndex runs f as the "full" subtest. The store keeps a single
// index, keyed by each key's 64-bit fingerprint; the subtest name
// keeps these tests' IDs the same as when the index layout was a choice.
func runFullIndex(t *testing.T, f func(t *testing.T)) { t.Run("full", f) }

func TestRoundTrip(t *testing.T) { runFullIndex(t, testRoundTrip) }

func testRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	for i := 0; i < 50; i++ {
		if err := st.Put(testKey(i), testBody(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if st.Len() != 50 {
		t.Fatalf("Len = %d, want 50", st.Len())
	}
	for i := 0; i < 50; i++ {
		body, ok, err := st.Get(testKey(i))
		if err != nil || !ok {
			t.Fatalf("Get(%d): ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(body, testBody(i)) {
			t.Fatalf("Get(%d): body mismatch", i)
		}
	}
	if _, ok, err := st.Get("never-stored"); ok || err != nil {
		t.Fatalf("Get(absent): ok=%v err=%v", ok, err)
	}
}

func TestDuplicatePutSkipped(t *testing.T) { runFullIndex(t, testDuplicatePutSkipped) }

func testDuplicatePutSkipped(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	body := testBody(1)
	for i := 0; i < 5; i++ {
		if err := st.Put("dup", body); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	stats := st.Stats()
	if stats.Puts != 1 || stats.DupPuts != 4 || stats.Keys != 1 {
		t.Fatalf("stats = %+v, want 1 put, 4 dups, 1 key", stats)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	st.segBytes = 128
	for i := 0; i < 20; i++ {
		if err := st.Put(testKey(i), testBody(i)); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if got := st.Stats().Segments; got < 2 {
		t.Fatalf("Segments = %d, want rotation to have happened", got)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Reopen across the rotated segments: everything must still be there.
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if st.Len() != 20 {
		t.Fatalf("Len after reopen = %d, want 20", st.Len())
	}
	for i := 0; i < 20; i++ {
		body, ok, err := st.Get(testKey(i))
		if err != nil || !ok || !bytes.Equal(body, testBody(i)) {
			t.Fatalf("Get(%d) after reopen: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestMissesSkipDisk: the in-memory index answers every absent key, so each
// one counts in BloomNegatives and none costs a disk read.
func TestMissesSkipDisk(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	for i := 0; i < 10; i++ {
		if err := st.Put(testKey(i), testBody(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	before := st.Stats()
	misses := 200
	for i := 0; i < misses; i++ {
		if _, ok, err := st.Get(fmt.Sprintf("absent-%d", i)); ok || err != nil {
			t.Fatalf("Get(absent): ok=%v err=%v", ok, err)
		}
	}
	after := st.Stats()
	if got := after.BloomNegatives - before.BloomNegatives; got != int64(misses) {
		t.Errorf("BloomNegatives rose by %d, want %d (every absent key)", got, misses)
	}
	if got := after.DiskReads - before.DiskReads; got != 0 {
		t.Errorf("absent-key lookups cost %d disk reads, want 0", got)
	}
}

func TestTornTailTruncated(t *testing.T) { runFullIndex(t, testTornTailTruncated) }

func testTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 8; i++ {
		if err := st.Put(testKey(i), testBody(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	const garbage = 37
	if err := InjectTornTail(dir, garbage); err != nil {
		t.Fatalf("InjectTornTail: %v", err)
	}
	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st.Close()
	if got := st.Stats().RecoveredBytes; got != garbage {
		t.Fatalf("RecoveredBytes = %d, want %d", got, garbage)
	}
	if st.Len() != 8 {
		t.Fatalf("Len = %d, want 8 surviving keys", st.Len())
	}
	for i := 0; i < 8; i++ {
		body, ok, err := st.Get(testKey(i))
		if err != nil || !ok || !bytes.Equal(body, testBody(i)) {
			t.Fatalf("Get(%d) after torn-tail recovery: ok=%v err=%v", i, ok, err)
		}
	}
	// The store must stay appendable after recovery: a put lands in
	// the truncated segment and survives another cycle.
	if err := st.Put(testKey(99), testBody(99)); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if err := st.Put("", []byte("x")); err == nil {
		t.Fatal("Put(empty key): want error")
	}
}

func TestClosedStoreErrors(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := st.Get("k"); err == nil {
		t.Error("Get after Close: want error")
	}
	if err := st.Put("k", []byte("v")); err == nil {
		t.Error("Put after Close: want error")
	}
	if err := st.Sync(); err == nil {
		t.Error("Sync after Close: want error")
	}
}

// TestRecoveryProperty is the seeded crash-point sweep (ISSUE 9 satellite):
// write a known record sequence, then simulate a crash by cutting the
// segment at a seeded byte offset — mid-record, mid-header, exactly on a
// record boundary — or by appending garbage past a clean sync. Open must
// always succeed, recover the longest valid prefix, and serve every
// surviving key byte-identical; keys past the cut must read as clean
// misses, never corrupt bodies.
func TestRecoveryProperty(t *testing.T) { runFullIndex(t, testRecoveryProperty) }

func testRecoveryProperty(t *testing.T) {
	const records = 24
	// Precompute each record's end offset in the single segment so the
	// expected survivor set at any cut point is exact.
	ends := make([]int64, records)
	var off int64
	for i := 0; i < records; i++ {
		off += recordLen(len(testKey(i)), len(testBody(i)))
		ends[i] = off
	}
	total := off

	for _, seed := range []uint64{1, 2, 3, 17, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed)
			for trial := 0; trial < 20; trial++ {
				dir := t.TempDir()
				st, err := Open(dir, Options{})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				for i := 0; i < records; i++ {
					if err := st.Put(testKey(i), testBody(i)); err != nil {
						t.Fatalf("Put: %v", err)
					}
				}
				if err := st.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}

				seg := filepath.Join(dir, segName(0))
				var cut int64
				switch mode := r.Intn(4); mode {
				case 0: // anywhere, usually mid-record
					cut = int64(r.Intn(int(total)))
				case 1: // mid-header of a seeded record
					cut = ends[r.Intn(records-1)] + int64(r.Intn(recordHeaderLen))
				case 2: // exactly on a record boundary
					cut = ends[r.Intn(records)]
				case 3: // clean file, garbage appended after the sync
					cut = total
				}
				if cut < total {
					if err := os.Truncate(seg, cut); err != nil {
						t.Fatalf("truncate: %v", err)
					}
				} else if err := InjectTornTail(dir, 1+r.Intn(64)); err != nil {
					t.Fatalf("InjectTornTail: %v", err)
				}

				st, err = Open(dir, Options{})
				if err != nil {
					t.Fatalf("reopen after cut at %d: %v", cut, err)
				}
				survivors := 0
				for i := 0; i < records; i++ {
					wantOK := ends[i] <= cut
					body, ok, err := st.Get(testKey(i))
					if err != nil {
						t.Fatalf("Get(%d) after cut at %d: %v", i, cut, err)
					}
					if ok != wantOK {
						t.Fatalf("Get(%d) after cut at %d: ok=%v, want %v", i, cut, ok, wantOK)
					}
					if ok {
						survivors++
						if !bytes.Equal(body, testBody(i)) {
							t.Fatalf("Get(%d) after cut at %d: body not byte-identical", i, cut)
						}
					}
				}
				if st.Len() != survivors {
					t.Fatalf("Len = %d, want %d survivors at cut %d", st.Len(), survivors, cut)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("Close after recovery: %v", err)
				}
			}
		})
	}
}

// TestFingerprintCollisionIsAMiss plants key A's record under key B's
// fingerprint, white-box, to exercise a 64-bit collision on demand. Get(B)
// reads A's CRC-valid record, sees a different stored key, and must report
// a miss: no wrong bytes, nothing quarantined, A still readable. Put(B)
// then counts as a duplicate without touching the disk, so B stays a miss.
func TestFingerprintCollisionIsAMiss(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	a, b := testKey(1), testKey(2) // equal lengths, so Get(b) reaches the disk
	if err := st.Put(a, testBody(1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	st.index[fingerprint(b)] = st.index[fingerprint(a)]

	before := st.Stats()
	if body, ok, err := st.Get(b); ok || err != nil {
		t.Fatalf("Get(colliding key) = (%q, %v, %v), want a clean miss", body, ok, err)
	}
	after := st.Stats()
	if after.DiskReads != before.DiskReads+1 {
		t.Fatalf("collision lookup made %d disk reads, want 1 (the key compare)", after.DiskReads-before.DiskReads)
	}
	if after.Quarantined != 0 || after.Health != Healthy {
		t.Fatalf("collision quarantined %d records, health %v; want 0, healthy", after.Quarantined, after.Health)
	}
	if body, ok, err := st.Get(a); err != nil || !ok || !bytes.Equal(body, testBody(1)) {
		t.Fatalf("Get(owner) = (%v, %v), want intact hit", ok, err)
	}
	if err := st.Put(b, testBody(2)); err != nil {
		t.Fatalf("Put(colliding key): %v", err)
	}
	stats := st.Stats()
	if stats.Puts != 1 || stats.DupPuts != 1 || stats.DiskReads != after.DiskReads+1 {
		t.Fatalf("stats = %+v, want the colliding Put skipped as a duplicate with no disk read", stats)
	}
	if _, ok, _ := st.Get(b); ok {
		t.Fatal("colliding key served after its Put was skipped")
	}
}

// TestOpensEarlierSegments opens segment files written by the exact-key
// index store that preceded the fingerprint index (testdata/segments: 24
// records over three rotated segments, plus a torn tail added here). The
// on-disk format is unchanged, so every record must serve byte-identically.
func TestOpensEarlierSegments(t *testing.T) {
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join("testdata", "segments", "seg-*.log"))
	if err != nil || len(names) != 3 {
		t.Fatalf("fixture segments: %v %v", names, err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := InjectTornTail(dir, 37); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	if stats := st.Stats(); stats.Keys != 24 || stats.Segments != 3 || stats.RecoveredBytes != 37 {
		t.Fatalf("stats = %+v, want 24 keys over 3 segments, 37 recovered bytes", stats)
	}
	for i := 0; i < 24; i++ {
		body, ok, err := st.Get(testKey(i))
		if err != nil || !ok || !bytes.Equal(body, testBody(i)) {
			t.Fatalf("Get(%d) = (%q, %v, %v), want the stored body", i, body, ok, err)
		}
	}
}

// TestGetBodyIsExactSize: a disk hit returns a body with cap == len, read
// through pooled scratch, so the bytes one Get allocates are about the body
// alone — not the record's header, key and CRC, which a promoted body
// would otherwise keep alive.
func TestGetBodyIsExactSize(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	key := fmt.Sprintf("key-%0400d", 7)             // canonical keys are long: they encode a matrix
	want := bytes.Repeat([]byte("0123456789"), 100) // not a size class: append would round cap up
	if err := st.Put(key, want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	get := func() {
		body, ok, err := st.Get(key)
		if err != nil || !ok || !bytes.Equal(body, want) {
			t.Fatalf("Get = %d bytes, %v, %v", len(body), ok, err)
		}
		if cap(body) != len(body) {
			t.Fatalf("Get body has cap %d for %d bytes", cap(body), len(body))
		}
	}
	get()
	if raceDetectorEnabled {
		return // pooled scratch is dropped at random: the byte count is noise
	}
	const gets = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		get()
	}
	runtime.ReadMemStats(&after)
	perGet := (after.TotalAlloc - before.TotalAlloc) / gets
	if record := uint64(recordLen(len(key), len(want))); perGet > uint64(len(want))+64 || perGet >= record {
		t.Fatalf("a disk hit allocates %d B for a %d-byte body (%d-byte record)", perGet, len(want), record)
	}
}

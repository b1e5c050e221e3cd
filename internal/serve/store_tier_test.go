package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/store"
)

// openStore opens a real internal/store instance for tier tests.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// TestDiskTierSurvivesRestart is the tier's headline contract: a body
// computed before a restart is answered after the restart from disk,
// byte-identical, with X-Schedd-Cache: disk, and the disk hit promotes the
// entry so the next repeat is a memory hit.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	body := iterateBody("sufferage", "random", 42)

	st := openStore(t, dir)
	s := NewServer(Options{Store: st})
	first := post(s, "/v1/iterate", body)
	if first.Code != http.StatusOK {
		t.Fatalf("status %d: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Schedd-Cache"); got != "miss" {
		t.Fatalf("first request cache = %q, want miss", got)
	}
	drain(t, s) // flushes the write-behind queue
	if err := st.Close(); err != nil {
		t.Fatalf("store Close: %v", err)
	}

	// "Restart": a fresh server (cold LRU) over a reopened store.
	st = openStore(t, dir)
	s = NewServer(Options{Store: st})
	defer func() {
		drain(t, s)
		st.Close()
	}()
	second := post(s, "/v1/iterate", body)
	if second.Code != http.StatusOK {
		t.Fatalf("status %d: %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Schedd-Cache"); got != "disk" {
		t.Fatalf("post-restart cache = %q, want disk", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatal("disk hit is not byte-identical to the computed response")
	}
	if got := counterValue(t, s, "serve.disk_hits"); got != 1 {
		t.Fatalf("disk_hits = %d, want 1", got)
	}
	third := post(s, "/v1/iterate", body)
	if got := third.Header().Get("X-Schedd-Cache"); got != "hit" {
		t.Fatalf("promotion: repeat cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), third.Body.Bytes()) {
		t.Fatal("promoted hit is not byte-identical")
	}
}

// TestDiskTierMissCounters: a storeful server that has never computed the
// key records a disk miss and computes normally.
func TestDiskTierMissCounters(t *testing.T) {
	st := openStore(t, t.TempDir())
	s := NewServer(Options{Store: st})
	defer func() {
		drain(t, s)
		st.Close()
	}()
	rec := post(s, "/v1/iterate", iterateBody("min-min", "det", 1))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Schedd-Cache"); got != "miss" {
		t.Fatalf("cache = %q, want miss", got)
	}
	if got := counterValue(t, s, "serve.disk_misses"); got != 1 {
		t.Fatalf("disk_misses = %d, want 1", got)
	}
}

// TestDrainFlushesWriteBehind: every body computed before Drain returns is
// durable in the store, even though Puts happen off the request path.
func TestDrainFlushesWriteBehind(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s := NewServer(Options{Store: st})
	var want [][]byte
	for seed := uint64(0); seed < 8; seed++ {
		rec := post(s, "/v1/iterate", iterateBody("sufferage", "random", seed))
		if rec.Code != http.StatusOK {
			t.Fatalf("seed %d: status %d", seed, rec.Code)
		}
		want = append(want, append([]byte(nil), rec.Body.Bytes()...))
	}
	drain(t, s)
	if got := st.Len(); got != 8 {
		t.Fatalf("store holds %d keys after drain, want 8", got)
	}
	st.Close()

	// The reopened store answers all eight byte-identically.
	st = openStore(t, dir)
	s = NewServer(Options{Store: st})
	defer func() {
		drain(t, s)
		st.Close()
	}()
	for seed := uint64(0); seed < 8; seed++ {
		rec := post(s, "/v1/iterate", iterateBody("sufferage", "random", seed))
		if got := rec.Header().Get("X-Schedd-Cache"); got != "disk" {
			t.Fatalf("seed %d: cache = %q, want disk", seed, got)
		}
		if !bytes.Equal(rec.Body.Bytes(), want[seed]) {
			t.Fatalf("seed %d: body differs after restart", seed)
		}
	}
}

// failingStore errors on every access; the server must treat that as a miss
// and keep serving.
type failingStore struct{}

func (failingStore) Get(string) ([]byte, bool, error) { return nil, false, errors.New("disk gone") }
func (failingStore) Put(string, []byte) error         { return errors.New("disk gone") }

func TestDiskTierErrorIsAMiss(t *testing.T) {
	s := NewServer(Options{Store: failingStore{}})
	defer drain(t, s)
	rec := post(s, "/v1/iterate", iterateBody("min-min", "det", 7))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: a broken store must not fail requests", rec.Code)
	}
	if got := counterValue(t, s, "serve.disk_read_errors"); got != 1 {
		t.Fatalf("disk_read_errors = %d, want 1 (the request's consult)", got)
	}
	drain(t, s) // flushes the write-behind append
	if got := counterValue(t, s, "serve.disk_write_errors"); got != 1 {
		t.Fatalf("disk_write_errors = %d, want 1 (the computed body's append)", got)
	}
}

// TestDiskTierBatchItems: batch items resolved from disk report cache
// "disk" per item and stay byte-identical to singleton responses.
func TestDiskTierBatchItems(t *testing.T) {
	dir := t.TempDir()
	body := iterateBody("sufferage", "random", 3)

	st := openStore(t, dir)
	s := NewServer(Options{Store: st})
	singleton := post(s, "/v1/iterate", body)
	if singleton.Code != http.StatusOK {
		t.Fatalf("status %d", singleton.Code)
	}
	drain(t, s)
	st.Close()

	st = openStore(t, dir)
	s = NewServer(Options{Store: st})
	defer func() {
		drain(t, s)
		st.Close()
	}()
	item := `{"endpoint":"iterate",` + body[1:]
	rec := post(s, "/v1/batch", `{"items":[`+item+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	out := rec.Body.String()
	if !bytes.Contains([]byte(out), []byte(`"cache":"disk"`)) {
		t.Fatalf("batch item not served from disk:\n%s", out)
	}
	trimmed := bytes.TrimSuffix(singleton.Body.Bytes(), []byte("\n"))
	if !bytes.Contains(rec.Body.Bytes(), trimmed) {
		t.Fatal("batch item body not byte-identical to the singleton response")
	}
}

// waitFor polls cond until it holds or the deadline passes. Test-only
// synchronization with the asynchronous write-behind goroutine — wall clock
// never shapes server behavior, only when the test looks at it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDiskTierGracefulDegradation drives a health-aware store through the
// whole failure arc under a live server — healthy → offline (read errors)
// → skipped consults → probe recovery → degraded → healthy — and checks
// the client never sees any of it: every response for the same request is
// byte-identical and 200 regardless of disk state.
func TestDiskTierGracefulDegradation(t *testing.T) {
	ffs := store.NewFaultFS(nil, store.FaultSpec{Seed: 1, ReadErrP: 1})
	ffs.SetEnabled(false)
	st, err := store.Open(t.TempDir(), store.Options{FS: ffs, ProbeAfter: 2})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	// CacheEntries: -1 disables the LRU so every request consults the disk
	// tier — the test needs the disk on the path, not memory hits.
	s := NewServer(Options{Store: st, CacheEntries: -1})
	defer func() {
		drain(t, s)
		st.Close()
	}()
	body := iterateBody("min-min", "det", 7)

	// Healthy: miss → computed → written behind → served from disk.
	first := post(s, "/v1/iterate", body)
	if first.Code != http.StatusOK || first.Header().Get("X-Schedd-Cache") != "miss" {
		t.Fatalf("warm post: %d %q", first.Code, first.Header().Get("X-Schedd-Cache"))
	}
	waitFor(t, "write-behind flush", func() bool { return st.Len() == 1 })
	if rec := post(s, "/v1/iterate", body); rec.Header().Get("X-Schedd-Cache") != "disk" {
		t.Fatalf("healthy repeat cache = %q, want disk", rec.Header().Get("X-Schedd-Cache"))
	}

	// Read storm: the disk Get fails, the request falls through to compute
	// byte-identically, and the store goes offline.
	ffs.SetEnabled(true)
	rec := post(s, "/v1/iterate", body)
	if rec.Code != http.StatusOK || rec.Header().Get("X-Schedd-Cache") != "miss" {
		t.Fatalf("faulted post: %d %q, want 200 miss fallthrough", rec.Code, rec.Header().Get("X-Schedd-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatal("fallthrough body not byte-identical to the healthy response")
	}
	if got := st.HealthState(); got != "offline" {
		t.Fatalf("store health = %q, want offline", got)
	}

	// Offline: the next consult is gated — no disk I/O at all, counted.
	rec = post(s, "/v1/iterate", body)
	if rec.Code != http.StatusOK || !bytes.Equal(first.Body.Bytes(), rec.Body.Bytes()) {
		t.Fatal("gated post not byte-identical 200")
	}
	if got := counterValue(t, s, "serve.disk_skipped"); got != 1 {
		t.Fatalf("disk_skipped = %d, want 1", got)
	}

	// Disk repaired: the next consult is the read probe (ProbeAfter=2) and
	// serves the stored body again; health steps offline → degraded.
	ffs.SetEnabled(false)
	rec = post(s, "/v1/iterate", body)
	if got := rec.Header().Get("X-Schedd-Cache"); got != "disk" {
		t.Fatalf("probe post cache = %q, want disk", got)
	}
	if got := st.HealthState(); got != "degraded" {
		t.Fatalf("store health = %q, want degraded (writes unproven)", got)
	}

	// Degraded: fresh keys compute; the write-behind gate drops the first
	// append and lets the second through as the write probe → healthy.
	post(s, "/v1/iterate", iterateBody("min-min", "det", 8))
	post(s, "/v1/iterate", iterateBody("min-min", "det", 9))
	waitFor(t, "write-probe recovery", func() bool { return st.Health() == store.Healthy })
	if got := counterValue(t, s, "serve.disk_write_drops"); got < 1 {
		t.Fatalf("disk_write_drops = %d, want >= 1", got)
	}
	if got := counterValue(t, s, "serve.disk_read_errors"); got < 1 {
		t.Fatalf("disk_read_errors = %d, want >= 1 (the storm read)", got)
	}

	// /statusz surfaces the whole arc.
	req := httptest.NewRequest(http.MethodGet, "/statusz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	var status struct {
		Disk *statusDisk `json:"disk"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &status); err != nil || status.Disk == nil {
		t.Fatalf("statusz disk section missing: err=%v body=%s", err, w.Body.String())
	}
	if status.Disk.Health != "healthy" || status.Disk.Skipped != 1 || status.Disk.WriteDrops < 1 || status.Disk.ReadErrors < 1 {
		t.Fatalf("statusz disk = %+v, want healthy, 1 skipped, >=1 drops, >=1 read errors", status.Disk)
	}
}

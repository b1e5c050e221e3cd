package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openFaulted opens a store over a FaultFS in a temp dir, pre-seeding it
// with n records while the faults are disabled, and returns both.
func openFaulted(t *testing.T, spec FaultSpec, probeAfter, n int) (*Store, *FaultFS) {
	t.Helper()
	ffs := NewFaultFS(nil, spec)
	ffs.SetEnabled(false)
	st, err := Open(t.TempDir(), Options{FS: ffs, ProbeAfter: probeAfter})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < n; i++ {
		if err := st.Put(testKey(i), testBody(i)); err != nil {
			t.Fatalf("seed Put(%d): %v", i, err)
		}
	}
	return st, ffs
}

// TestHealthWriteErrorDegrades: Healthy → Degraded on a failed append, then
// a successful append recovers Degraded → Healthy.
func TestHealthWriteErrorDegrades(t *testing.T) {
	st, ffs := openFaulted(t, FaultSpec{Seed: 1, WriteErrP: 1}, 4, 2)
	if st.Health() != Healthy {
		t.Fatalf("health = %v, want healthy", st.Health())
	}
	ffs.SetEnabled(true)
	if err := st.Put(testKey(10), testBody(10)); !errors.Is(err, ErrInjectedWrite) {
		t.Fatalf("Put err = %v, want injected write", err)
	}
	if st.Health() != Degraded {
		t.Fatalf("health after write error = %v, want degraded", st.Health())
	}
	// Reads still work in Degraded — read-only mode serves existing records.
	if body, ok, err := st.Get(testKey(0)); err != nil || !ok || !bytes.Equal(body, testBody(0)) {
		t.Fatalf("degraded Get = (%v, %v), want hit", ok, err)
	}
	ffs.SetEnabled(false)
	if err := st.Put(testKey(11), testBody(11)); err != nil {
		t.Fatalf("recovery Put: %v", err)
	}
	if st.Health() != Healthy {
		t.Fatalf("health after successful append = %v, want healthy", st.Health())
	}
	stats := st.Stats()
	if stats.Degradations != 1 || stats.Recoveries != 1 {
		t.Fatalf("transitions = %+v, want 1 degradation, 1 recovery", stats)
	}
}

// TestHealthReadErrorOffline: a failed read sends any state Offline; a
// successful read probe steps back to Degraded (not straight to Healthy —
// writes are unproven), and a proven append completes recovery.
func TestHealthReadErrorOffline(t *testing.T) { runFullIndex(t, testHealthReadErrorOffline) }

func testHealthReadErrorOffline(t *testing.T) {
	st, ffs := openFaulted(t, FaultSpec{Seed: 2, ReadErrP: 1}, 4, 3)
	ffs.SetEnabled(true)
	if _, _, err := st.Get(testKey(0)); !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("Get err = %v, want injected read", err)
	}
	if st.Health() != Offline {
		t.Fatalf("health after read error = %v, want offline", st.Health())
	}
	ffs.SetEnabled(false)
	if body, ok, err := st.Get(testKey(1)); err != nil || !ok || !bytes.Equal(body, testBody(1)) {
		t.Fatalf("probe Get = (%v, %v), want hit", ok, err)
	}
	if st.Health() != Degraded {
		t.Fatalf("health after read probe = %v, want degraded (writes unproven)", st.Health())
	}
	if err := st.Put(testKey(20), testBody(20)); err != nil {
		t.Fatalf("recovery Put: %v", err)
	}
	if st.Health() != Healthy {
		t.Fatalf("health after append = %v, want healthy", st.Health())
	}
	stats := st.Stats()
	if stats.Offlines != 1 || stats.Recoveries != 2 {
		t.Fatalf("stats = %+v, want 1 offline, 2 recoveries", stats)
	}
}

// TestHealthENOSPCDegrades: the full-disk budget degrades the store to
// read-only exactly like any other write error.
func TestHealthENOSPCDegrades(t *testing.T) {
	st, ffs := openFaulted(t, FaultSpec{Seed: 3}, 4, 2)
	ffs.SetENOSPCAfter(ffs.Written()) // disk is exactly full now
	if err := st.Put(testKey(30), testBody(30)); !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("Put err = %v, want ENOSPC", err)
	}
	if st.Health() != Degraded {
		t.Fatalf("health = %v, want degraded", st.Health())
	}
	// Existing records keep serving.
	if _, ok, err := st.Get(testKey(0)); err != nil || !ok {
		t.Fatalf("read-only Get = (%v, %v), want hit", ok, err)
	}
	ffs.SetENOSPCAfter(0) // "the disk was expanded"
	if err := st.Put(testKey(31), testBody(31)); err != nil {
		t.Fatalf("post-expansion Put: %v", err)
	}
	if st.Health() != Healthy {
		t.Fatalf("health after expansion append = %v, want healthy", st.Health())
	}
}

// TestConsultGating pins the request-counted probe cadence: Offline gates
// reads to every ProbeAfter-th consult, Degraded gates writes the same way,
// Offline admits no writes at all.
func TestConsultGating(t *testing.T) {
	st, _ := openFaulted(t, FaultSpec{Seed: 4}, 3, 1)
	// Healthy: everything consults.
	for i := 0; i < 5; i++ {
		if !st.ConsultRead() || !st.ConsultWrite() {
			t.Fatal("healthy store must always consult")
		}
	}
	st.health.noteWriteError() // → Degraded
	var admitted int
	for i := 0; i < 9; i++ {
		if !st.ConsultRead() {
			t.Fatal("degraded store must still consult reads")
		}
		if st.ConsultWrite() {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("degraded write consults admitted %d of 9, want every 3rd = 3", admitted)
	}
	st.health.noteReadError() // → Offline
	admitted = 0
	for i := 0; i < 9; i++ {
		if st.ConsultWrite() {
			t.Fatal("offline store must not consult writes")
		}
		if st.ConsultRead() {
			admitted++
		}
	}
	if admitted != 3 {
		t.Fatalf("offline read consults admitted %d of 9, want every 3rd = 3", admitted)
	}
}

// TestOfflineProbeOnAbsentKey: while Offline, a Get for a key that would not
// touch disk (an index miss) still probes the disk so recovery cannot
// stall on a miss-only workload.
func TestOfflineProbeOnAbsentKey(t *testing.T) {
	st, ffs := openFaulted(t, FaultSpec{Seed: 5, ReadErrP: 1}, 1, 2)
	ffs.SetEnabled(true)
	if _, _, err := st.Get(testKey(0)); err == nil {
		t.Fatal("expected injected read error")
	}
	if st.Health() != Offline {
		t.Fatalf("health = %v, want offline", st.Health())
	}
	ffs.SetEnabled(false)
	// ProbeAfter=1: this consult probes despite the key being absent.
	if _, ok, err := st.Get("absolutely-never-stored"); ok || err != nil {
		t.Fatalf("absent Get = (%v, %v), want clean miss", ok, err)
	}
	if st.Health() != Degraded {
		t.Fatalf("health after absent-key probe = %v, want degraded", st.Health())
	}
}

// TestQuarantineCorruptRecord flips one byte of a stored record's body on
// disk and checks the Get-time CRC catches it: the corrupt bytes are never
// returned, the record is de-indexed and counted, and the store stays
// healthy (corruption is a data problem, not an I/O-health problem).
func TestQuarantineCorruptRecord(t *testing.T) { runFullIndex(t, testQuarantineCorruptRecord) }

func testQuarantineCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st.Close()
	for i := 0; i < 3; i++ {
		if err := st.Put(testKey(i), testBody(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	// Flip one byte inside record 1's body, in place, on disk.
	h1 := fingerprint(testKey(1))
	l := st.index[h1]
	off := l.off + recordHeaderLen + int64(l.keyLen)
	name := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(name, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	f.Close()

	if body, ok, err := st.Get(testKey(1)); ok || err != nil {
		t.Fatalf("corrupt Get = (%q, %v, %v), want quarantined miss", body, ok, err)
	}
	stats := st.Stats()
	if stats.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", stats.Quarantined)
	}
	if stats.Health != Healthy {
		t.Fatalf("health = %v, want healthy (corruption is not an I/O fault)", stats.Health)
	}
	// The quarantined record stays gone; its neighbors still serve.
	if _, ok, _ := st.Get(testKey(1)); ok {
		t.Fatal("quarantined record served on second Get")
	}
	for _, i := range []int{0, 2} {
		if body, ok, err := st.Get(testKey(i)); err != nil || !ok || !bytes.Equal(body, testBody(i)) {
			t.Fatalf("neighbor Get(%d) = (%v, %v), want intact hit", i, ok, err)
		}
	}
	// Re-Put restores the key (newest wins on the next lookup).
	if err := st.Put(testKey(1), testBody(1)); err != nil {
		t.Fatalf("re-Put: %v", err)
	}
	if body, ok, err := st.Get(testKey(1)); err != nil || !ok || !bytes.Equal(body, testBody(1)) {
		t.Fatalf("restored Get = (%v, %v), want hit", ok, err)
	}
}

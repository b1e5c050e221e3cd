package store

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec("seed=7,readerr=0.5,writeerr=0.25,syncerr=0.1,shortwrite=0.2,enospc=4096")
	if err != nil {
		t.Fatalf("ParseFaultSpec: %v", err)
	}
	want := FaultSpec{Seed: 7, ReadErrP: 0.5, WriteErrP: 0.25, SyncErrP: 0.1, ShortWriteP: 0.2, ENOSPCAfter: 4096}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	// String renders back in the same grammar, so a spec survives a
	// parse/render round trip.
	again, err := ParseFaultSpec(spec.String())
	if err != nil || again != spec {
		t.Fatalf("round trip: %+v err=%v", again, err)
	}
	if _, err := ParseFaultSpec("readerr=0.5"); err != nil {
		t.Fatalf("seedless spec should parse (seed 0 is valid): %v", err)
	}
	for _, bad := range []string{
		"",
		"readerr=1.5,seed=1",   // probability out of range
		"readerr=-0.1",         // negative probability
		"bogus=1",              // unknown field
		"seed",                 // not key=value
		"seed=abc",             // malformed seed
		"enospc=-1",            // negative budget
		"seed=1,latency=1:5ms", // a faults.Parse field is not ours
		// NaN fails every range comparison, so it needs its own rejection:
		// accepted, it would inject nothing on that field.
		"readerr=NaN",
		"writeerr=NaN",
		"syncerr=nan",
		"shortwrite=NaN",
	} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Fatalf("ParseFaultSpec(%q): expected error", bad)
		}
	}
}

// FuzzFaultFSSpec: every spec ParseFaultSpec accepts has each probability
// in [0, 1], and String∘ParseFaultSpec is idempotent on its own output — a
// rendered spec parses back and renders to the same bytes.
func FuzzFaultFSSpec(f *testing.F) {
	for _, in := range []string{
		"seed=7,readerr=0.5,writeerr=0.25,syncerr=0.1,shortwrite=0.2,enospc=4096",
		"readerr=1",
		"seed=0,enospc=0,writeerr=0",
	} {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseFaultSpec(in)
		if err != nil {
			return
		}
		for _, p := range []float64{s.ReadErrP, s.WriteErrP, s.SyncErrP, s.ShortWriteP} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseFaultSpec(%q) accepted probability %v", in, p)
			}
		}
		out := s.String()
		again, err := ParseFaultSpec(out)
		if err != nil {
			t.Fatalf("ParseFaultSpec(%q) rejects its own rendering %q: %v", in, out, err)
		}
		if got := again.String(); got != out {
			t.Fatalf("ParseFaultSpec(%q) renders %q, which renders again as %q", in, out, got)
		}
	})
}

// TestFaultFSDeterministic proves the headline property: the same spec
// replayed over the same op sequence injects the same faults at the same
// positions — the decision stream is a pure function of the seed and the
// per-kind op order.
func TestFaultFSDeterministic(t *testing.T) {
	spec := FaultSpec{Seed: 11, ReadErrP: 0.4, WriteErrP: 0.3, ShortWriteP: 0.3, SyncErrP: 0.5}
	run := func() (reads, writes, syncs []bool) {
		ffs := NewFaultFS(nil, spec)
		dir := t.TempDir()
		f, err := ffs.OpenFile(dir+"/probe.log", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			t.Fatalf("OpenFile: %v", err)
		}
		defer f.Close()
		buf := []byte("0123456789abcdef")
		if _, err := f.WriteAt(buf, 0); err != nil && !isInjected(err) {
			t.Fatalf("seed write: %v", err)
		}
		for i := 0; i < 64; i++ {
			_, err := f.ReadAt(make([]byte, 4), 0)
			reads = append(reads, isInjected(err))
			_, err = f.WriteAt(buf, int64(16+16*i))
			writes = append(writes, isInjected(err))
			syncs = append(syncs, isInjected(f.Sync()))
		}
		return reads, writes, syncs
	}
	r1, w1, s1 := run()
	r2, w2, s2 := run()
	if !boolsEqual(r1, r2) || !boolsEqual(w1, w2) || !boolsEqual(s1, s2) {
		t.Fatal("fault decision streams differ across identical replays")
	}
	if !anyTrue(r1) || !anyTrue(w1) || !anyTrue(s1) {
		t.Fatalf("spec with p≈0.3–0.5 injected nothing over 64 ops: r=%v w=%v s=%v", anyTrue(r1), anyTrue(w1), anyTrue(s1))
	}
}

func isInjected(err error) bool {
	return errors.Is(err, ErrInjectedRead) || errors.Is(err, ErrInjectedWrite) ||
		errors.Is(err, ErrInjectedSync) || errors.Is(err, ErrInjectedShortWrite) ||
		errors.Is(err, ErrInjectedENOSPC)
}

func boolsEqual(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func anyTrue(a []bool) bool {
	for _, v := range a {
		if v {
			return true
		}
	}
	return false
}

// TestFaultFSShortWrite checks the torn-write model: exactly the first half
// of the buffer is persisted and ErrInjectedShortWrite is reported.
func TestFaultFSShortWrite(t *testing.T) {
	ffs := NewFaultFS(nil, FaultSpec{Seed: 1, ShortWriteP: 1})
	f, err := ffs.OpenFile(t.TempDir()+"/short.log", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	payload := []byte("0123456789")
	n, err := f.WriteAt(payload, 0)
	if !errors.Is(err, ErrInjectedShortWrite) || n != len(payload)/2 {
		t.Fatalf("WriteAt = (%d, %v), want (%d, short write)", n, err, len(payload)/2)
	}
	got := make([]byte, n)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if !bytes.Equal(got, payload[:n]) {
		t.Fatalf("persisted %q, want %q", got, payload[:n])
	}
	if c := ffs.Counts(); c.ShortWrites != 1 {
		t.Fatalf("Counts.ShortWrites = %d, want 1", c.ShortWrites)
	}
}

// TestFaultFSENOSPC checks the byte-budget model: writes succeed up to the
// budget, then every further write fails, and expanding the budget unblocks.
func TestFaultFSENOSPC(t *testing.T) {
	ffs := NewFaultFS(nil, FaultSpec{Seed: 1, ENOSPCAfter: 10})
	f, err := ffs.OpenFile(t.TempDir()+"/full.log", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if _, err := f.WriteAt(make([]byte, 10), 0); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 10); !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("over budget err = %v, want ENOSPC", err)
	}
	// The budget ignores SetEnabled — a full disk stays full while the
	// probabilistic faults toggle.
	ffs.SetEnabled(false)
	if _, err := f.WriteAt([]byte("x"), 10); !errors.Is(err, ErrInjectedENOSPC) {
		t.Fatalf("budget should survive SetEnabled(false), got %v", err)
	}
	ffs.SetENOSPCAfter(0)
	if _, err := f.WriteAt([]byte("x"), 10); err != nil {
		t.Fatalf("after expansion: %v", err)
	}
	if got := ffs.Written(); got != 11 {
		t.Fatalf("Written = %d, want 11", got)
	}
	if c := ffs.Counts(); c.ENOSPCs != 2 {
		t.Fatalf("Counts.ENOSPCs = %d, want 2", c.ENOSPCs)
	}
}

// TestFaultFSDisabledTransparent checks SetEnabled(false) makes the FS a
// transparent proxy: no faults, no draws consumed (re-enabling resumes the
// stream exactly where it left off).
func TestFaultFSDisabledTransparent(t *testing.T) {
	spec := FaultSpec{Seed: 3, ReadErrP: 1}
	ffs := NewFaultFS(nil, spec)
	ffs.SetEnabled(false)
	f, err := ffs.OpenFile(t.TempDir()+"/quiet.log", os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("data"), 0); err != nil {
		t.Fatalf("disabled write: %v", err)
	}
	for i := 0; i < 16; i++ {
		if _, err := f.ReadAt(make([]byte, 1), 0); err != nil {
			t.Fatalf("disabled read %d: %v", i, err)
		}
	}
	ffs.SetEnabled(true)
	if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrInjectedRead) {
		t.Fatalf("re-enabled read err = %v, want injected", err)
	}
}

// TestOpenReadErrorFailsInsteadOfTruncating pins the replay contract for a
// sick disk at startup: an I/O error while replaying a segment must fail
// Open outright — it is not a torn tail, and "recovering" past it would
// silently truncate valid records. The data must survive untouched for a
// later fault-free Open.
func TestOpenReadErrorFailsInsteadOfTruncating(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("seed open: %v", err)
	}
	body := []byte(`{"final_completion":[5,4,2]}`)
	if err := st.Put("k1", body); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	sick := NewFaultFS(nil, FaultSpec{Seed: 1, ReadErrP: 1})
	if _, err := Open(dir, Options{FS: sick}); err == nil {
		t.Fatal("Open succeeded over a filesystem whose every read fails; must error, not truncate")
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("fault-free reopen: %v", err)
	}
	defer st2.Close()
	if st2.Stats().RecoveredBytes != 0 {
		t.Fatalf("faulted Open truncated %d bytes of valid data", st2.Stats().RecoveredBytes)
	}
	got, ok, err := st2.Get("k1")
	if err != nil || !ok {
		t.Fatalf("record lost after faulted Open: ok=%v err=%v", ok, err)
	}
	if string(got) != string(body) {
		t.Fatalf("record bytes changed: %q != %q", got, body)
	}
}

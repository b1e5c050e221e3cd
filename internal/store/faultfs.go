package store

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Injected fault sentinels. They deliberately read like the real failures
// they model (EIO on read/write, a torn write, a full disk); errors.Is lets
// tests and the chaos harness tell an injected fault from a genuine one.
var (
	ErrInjectedRead       = errors.New("store: injected read error")
	ErrInjectedWrite      = errors.New("store: injected write error")
	ErrInjectedSync       = errors.New("store: injected sync error")
	ErrInjectedShortWrite = errors.New("store: injected short write")
	ErrInjectedENOSPC     = errors.New("store: injected ENOSPC (disk full)")
)

// FaultSpec configures a FaultFS. Build one with ParseFaultSpec (the
// -store-fault-inject flag grammar) or construct it directly; the zero value
// injects nothing.
type FaultSpec struct {
	// Seed drives every injection decision through internal/rng.
	Seed uint64
	// ReadErrP is the probability that a ReadAt fails with ErrInjectedRead
	// before touching the disk.
	ReadErrP float64
	// WriteErrP is the probability that a WriteAt fails with
	// ErrInjectedWrite before writing any bytes.
	WriteErrP float64
	// SyncErrP is the probability that a Sync fails with ErrInjectedSync.
	SyncErrP float64
	// ShortWriteP is the probability that a WriteAt persists only the first
	// half of its bytes and reports ErrInjectedShortWrite — the torn-write
	// failure mode recovery truncation exists for.
	ShortWriteP float64
	// ENOSPCAfter is a byte budget: once this many bytes have been written
	// through the filesystem, every further WriteAt fails with
	// ErrInjectedENOSPC. 0 disables the budget. Deterministic — no random
	// draw — so a "disk fills up" scenario replays exactly.
	ENOSPCAfter int64
}

// String renders the spec in the ParseFaultSpec grammar.
func (s FaultSpec) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	if s.ReadErrP > 0 {
		parts = append(parts, fmt.Sprintf("readerr=%g", s.ReadErrP))
	}
	if s.WriteErrP > 0 {
		parts = append(parts, fmt.Sprintf("writeerr=%g", s.WriteErrP))
	}
	if s.SyncErrP > 0 {
		parts = append(parts, fmt.Sprintf("syncerr=%g", s.SyncErrP))
	}
	if s.ShortWriteP > 0 {
		parts = append(parts, fmt.Sprintf("shortwrite=%g", s.ShortWriteP))
	}
	if s.ENOSPCAfter > 0 {
		parts = append(parts, fmt.Sprintf("enospc=%d", s.ENOSPCAfter))
	}
	return strings.Join(parts, ",")
}

// ParseFaultSpec reads the -store-fault-inject grammar, mirroring
// faults.Parse:
//
//	spec  := field ("," field)*
//	field := "seed=N"
//	       | "readerr=P"
//	       | "writeerr=P"
//	       | "syncerr=P"
//	       | "shortwrite=P"
//	       | "enospc=AFTERBYTES"
//
// Probabilities are in [0, 1]; NaN is not. Unknown fields, malformed
// values and out-of-range probabilities are errors: a typo'd fault spec
// must never silently inject nothing.
func ParseFaultSpec(spec string) (FaultSpec, error) {
	var s FaultSpec
	if strings.TrimSpace(spec) == "" {
		return s, fmt.Errorf("store: empty fault spec")
	}
	prob := func(field, v string) (float64, error) {
		p, err := strconv.ParseFloat(v, 64)
		if err != nil || !(p >= 0 && p <= 1) { // NaN fails both comparisons
			return 0, fmt.Errorf("store: %s probability %q not in [0, 1]", field, v)
		}
		return p, nil
	}
	for _, field := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return s, fmt.Errorf("store: fault field %q is not key=value", field)
		}
		var err error
		switch key {
		case "seed":
			if s.Seed, err = strconv.ParseUint(val, 10, 64); err != nil {
				return s, fmt.Errorf("store: fault seed %q: %v", val, err)
			}
		case "readerr":
			if s.ReadErrP, err = prob("readerr", val); err != nil {
				return s, err
			}
		case "writeerr":
			if s.WriteErrP, err = prob("writeerr", val); err != nil {
				return s, err
			}
		case "syncerr":
			if s.SyncErrP, err = prob("syncerr", val); err != nil {
				return s, err
			}
		case "shortwrite":
			if s.ShortWriteP, err = prob("shortwrite", val); err != nil {
				return s, err
			}
		case "enospc":
			if s.ENOSPCAfter, err = strconv.ParseInt(val, 10, 64); err != nil || s.ENOSPCAfter < 0 {
				return s, fmt.Errorf("store: enospc byte budget %q invalid", val)
			}
		default:
			return s, fmt.Errorf("store: unknown fault field %q", key)
		}
	}
	return s, nil
}

// FaultCounts is an observational snapshot of injected faults.
type FaultCounts struct {
	ReadErrs    int64
	WriteErrs   int64
	SyncErrs    int64
	ShortWrites int64
	ENOSPCs     int64
}

// FaultFS wraps another FS (OSFS when inner is nil) and injects seeded,
// deterministic I/O faults per a FaultSpec — the disk-side sibling of
// internal/faults. Faults withhold or tear I/O; they never alter bytes that
// are reported as successfully written or read.
//
// Determinism: each configured fault draws from its own rng stream, split
// from the seed in fixed field order (readerr, writeerr, syncerr,
// shortwrite) — one draw per configured fault per op of its kind, in fixed
// order. Per-fault streams make each decision stream a function of that op
// kind's arrival order alone, so the schedule replays exactly under the
// serving layer's arrangement (lookups serial on the request path, appends
// serial on the single write-behind goroutine) regardless of how the two
// interleave. The ENOSPC budget draws nothing: it trips on cumulative bytes
// written, which is deterministic in the write sequence.
type FaultFS struct {
	inner FS
	spec  FaultSpec

	// enabled gates the probabilistic faults (a disabled FaultFS is a
	// transparent proxy and consumes no draws); the ENOSPC byte budget is
	// governed solely by limit so a full disk stays full while other faults
	// toggle.
	enabled atomic.Bool
	written atomic.Int64
	limit   atomic.Int64

	mu                                   sync.Mutex
	readSrc, writeSrc, syncSrc, shortSrc *rng.Source

	readErrs, writeErrs, syncErrs, shortWrites, enospcs atomic.Int64
}

// NewFaultFS wraps inner (OSFS if nil) with fault injection per spec.
// Injection starts enabled; SetEnabled(false) makes the FS transparent
// without disturbing the decision streams.
func NewFaultFS(inner FS, spec FaultSpec) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	root := rng.New(spec.Seed)
	f := &FaultFS{
		inner:    inner,
		spec:     spec,
		readSrc:  root.Split(),
		writeSrc: root.Split(),
		syncSrc:  root.Split(),
		shortSrc: root.Split(),
	}
	f.limit.Store(spec.ENOSPCAfter)
	f.enabled.Store(true)
	return f
}

// SetEnabled turns the probabilistic faults on or off. Toggling consumes no
// draws, so a phased scenario (healthy traffic, then a fault storm, then
// recovery) keeps each stream replayable.
func (f *FaultFS) SetEnabled(on bool) { f.enabled.Store(on) }

// SetENOSPCAfter replaces the ENOSPC byte budget: writes fail once the
// cumulative bytes written exceed n. n <= 0 disables the budget ("the disk
// was expanded"). Written() as the argument fills the disk exactly now.
func (f *FaultFS) SetENOSPCAfter(n int64) {
	if n < 0 {
		n = 0
	}
	f.limit.Store(n)
}

// Written reports the cumulative bytes successfully written through the
// filesystem.
func (f *FaultFS) Written() int64 { return f.written.Load() }

// Counts returns an observational snapshot of injected faults.
func (f *FaultFS) Counts() FaultCounts {
	return FaultCounts{
		ReadErrs:    f.readErrs.Load(),
		WriteErrs:   f.writeErrs.Load(),
		SyncErrs:    f.syncErrs.Load(),
		ShortWrites: f.shortWrites.Load(),
		ENOSPCs:     f.enospcs.Load(),
	}
}

func (f *FaultFS) MkdirAll(dir string, perm os.FileMode) error {
	return f.inner.MkdirAll(dir, perm)
}

func (f *FaultFS) Glob(pattern string) ([]string, error) { return f.inner.Glob(pattern) }

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

// drawRead consumes one readerr draw (when configured and enabled).
func (f *FaultFS) drawRead() bool {
	if !f.enabled.Load() || f.spec.ReadErrP <= 0 {
		return false
	}
	f.mu.Lock()
	v := f.readSrc.Float64()
	f.mu.Unlock()
	return v < f.spec.ReadErrP
}

// drawWrite consumes the write-op draws in fixed order: writeerr, then
// shortwrite. A full write error wins over a short write.
func (f *FaultFS) drawWrite() (errFault, short bool) {
	if !f.enabled.Load() {
		return false, false
	}
	f.mu.Lock()
	if f.spec.WriteErrP > 0 {
		errFault = f.writeSrc.Float64() < f.spec.WriteErrP
	}
	if f.spec.ShortWriteP > 0 {
		short = f.shortSrc.Float64() < f.spec.ShortWriteP
	}
	f.mu.Unlock()
	if errFault {
		short = false
	}
	return errFault, short
}

// drawSync consumes one syncerr draw (when configured and enabled).
func (f *FaultFS) drawSync() bool {
	if !f.enabled.Load() || f.spec.SyncErrP <= 0 {
		return false
	}
	f.mu.Lock()
	v := f.syncSrc.Float64()
	f.mu.Unlock()
	return v < f.spec.SyncErrP
}

// faultFile interposes the fault draws on one open file's positional I/O.
type faultFile struct {
	File
	fs *FaultFS
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if f.fs.drawRead() {
		f.fs.readErrs.Add(1)
		return 0, ErrInjectedRead
	}
	return f.File.ReadAt(p, off)
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	errFault, short := f.fs.drawWrite()
	if errFault {
		f.fs.writeErrs.Add(1)
		return 0, ErrInjectedWrite
	}
	if lim := f.fs.limit.Load(); lim > 0 && f.fs.written.Load()+int64(len(p)) > lim {
		f.fs.enospcs.Add(1)
		return 0, ErrInjectedENOSPC
	}
	if short {
		f.fs.shortWrites.Add(1)
		n, err := f.File.WriteAt(p[:len(p)/2], off)
		f.fs.written.Add(int64(n))
		if err != nil {
			return n, err
		}
		return n, ErrInjectedShortWrite
	}
	n, err := f.File.WriteAt(p, off)
	f.fs.written.Add(int64(n))
	return n, err
}

func (f *faultFile) Sync() error {
	if f.fs.drawSync() {
		f.fs.syncErrs.Add(1)
		return ErrInjectedSync
	}
	return f.File.Sync()
}

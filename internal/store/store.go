// Package store is the crash-safe on-disk result tier behind the serving
// LRU (ROADMAP item 2): an append-only log of (canonical request key,
// marshaled response body) records, split into size-rotated segment files,
// fronted by an in-memory fingerprint index: a miss is answered from the
// index with zero disk reads, and a hit costs exactly one.
//
// The design is deliberately LSM-shaped but stops before compaction:
// response bodies are deterministic in their key (the serving layer's core
// invariant), so a duplicate append is byte-identical by construction and
// "newest wins" on lookup is indistinguishable from "oldest wins". Nothing
// is ever rewritten in place, which is what makes recovery trivial: on Open
// every segment is replayed record by record under a CRC, and the first
// torn or corrupt record truncates its segment to the valid prefix — a
// partially flushed tail from a crash is dropped, never served.
//
// The index maps each key's 64-bit fingerprint — computed once per
// operation, before any lock is taken — to one record location. It is the
// only lookup structure: a key it does not hold is absent. Memory per key
// is a fixed few dozen bytes however long the key (canonical keys encode a
// whole ETC matrix, so they run to kilobytes).
// Every Get reads the record and compares the stored key byte for byte, so
// a fingerprint collision is a miss, never a wrong body; Put treats a
// fingerprint already present as a duplicate, so a colliding key (odds
// about n²/2⁶⁵ over n keys) is simply never stored. EXPERIMENTS.md records
// the measurements that retired the exact-key and multi-candidate layouts.
//
// All I/O flows through the FS seam (fs.go): OSFS in production, FaultFS
// (faultfs.go) under test and chaos. Every Get re-verifies the record CRC
// before returning bytes — a record that rots on disk after Open is
// quarantined (de-indexed, counted) and reported as a miss, never served —
// and read/write outcomes drive the health state machine (health.go) that
// the serving tier consults for graceful degradation.
//
// Determinism: the store holds bytes produced by the deterministic serving
// layer and returns them verbatim. No clock, no randomness — the
// fingerprint is a fixed, unseeded function of the key bytes (a
// word-at-a-time fold, hash.go), and health recovery probes are
// request-counted, never timer-driven. The index lives only in memory and
// is rebuilt by replay on Open, so the hash is not part of the on-disk
// format.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// MaxSegmentBytes is the segment rotation size: the active segment rotates
// once an append would take it past this size.
const MaxSegmentBytes = 8 << 20

// Options configures a Store. The zero value is a working configuration.
type Options struct {
	// FS is the filesystem seam all segment I/O flows through. nil means
	// OSFS (the real disk); tests and the chaos harness interpose a
	// FaultFS here.
	FS FS
	// ProbeAfter is the recovery-probe cadence of the health state machine:
	// while the store is sick, every ProbeAfter-th consult attempts one real
	// disk op as a probe. 0 means DefaultProbeAfter.
	ProbeAfter int
}

// Stats is an observational snapshot of a store's state and traffic.
type Stats struct {
	// Keys is the number of distinct keys currently readable.
	Keys int
	// Segments is the number of segment files.
	Segments int
	// RecoveredBytes is how many torn-tail bytes Open truncated.
	RecoveredBytes int64
	// BloomNegatives counts Gets the in-memory index answers "absent" —
	// zero disk reads. The name is older than the index being the only
	// lookup structure (a bloom filter once stood in front of it); it stays
	// because the benchmark harness reads it.
	BloomNegatives int64
	// DiskReads counts record reads served from segment files.
	DiskReads int64
	// Puts counts appended records; DupPuts counts Puts skipped because the
	// key was already stored (the body is identical by determinism).
	Puts    int64
	DupPuts int64
	// Health is the current disk-health state.
	Health Health
	// Quarantined counts records de-indexed because a Get-time CRC check
	// failed.
	Quarantined int64
	// Degradations, Offlines and Recoveries count health-state transitions:
	// Healthy→Degraded, →Offline, and each probe-driven step back.
	Degradations int64
	Offlines     int64
	Recoveries   int64
}

// recordLoc locates one record inside the segment list.
type recordLoc struct {
	seg     int
	off     int64
	keyLen  uint32
	bodyLen uint32
}

// segment is one append-only log file. Only the last segment is written.
type segment struct {
	f    File
	id   int
	size int64
}

// Store is the on-disk result tier. Safe for concurrent use: lookups take a
// read lock, appends and rotation a write lock.
type Store struct {
	dir        string
	fs         FS
	probeAfter int
	// segBytes is the rotation size, MaxSegmentBytes; tests lower it to
	// rotate on small records.
	segBytes int64

	mu     sync.RWMutex
	closed bool
	segs   []*segment
	index  map[uint64]recordLoc // key fingerprint → newest record

	recovered                int64
	indexMisses              atomic.Int64
	diskReads, puts, dupPuts atomic.Int64
	quarantined              atomic.Int64
	health                   health
	scratch                  sync.Pool // *[]byte record encode/read buffers
}

// Record layout, little-endian, one per append:
//
//	u32 keyLen | u32 bodyLen | key | body | u32 crc32-IEEE(header+key+body)
//
// The CRC covers everything before it, so any torn or bit-flipped prefix
// fails validation and recovery truncates there.
const (
	recordHeaderLen  = 8
	recordTrailerLen = 4
	// maxRecordPart bounds keyLen and bodyLen read back from disk, so a
	// corrupt length field cannot drive a giant allocation during recovery.
	maxRecordPart = 1 << 30
)

func recordLen(keyLen, bodyLen int) int64 {
	return int64(recordHeaderLen + keyLen + bodyLen + recordTrailerLen)
}

func segName(id int) string { return fmt.Sprintf("seg-%06d.log", id) }

// Open opens (or creates) the store rooted at dir, replaying and validating
// every segment: readable records rebuild the index, and the first invalid
// record in a segment truncates that segment to its valid prefix (a torn
// tail from a crash is dropped, never served).
func Open(dir string, opts Options) (*Store, error) {
	if opts.ProbeAfter <= 0 {
		opts.ProbeAfter = DefaultProbeAfter
	}
	fs := opts.FS
	if fs == nil {
		fs = OSFS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:        dir,
		fs:         fs,
		probeAfter: opts.ProbeAfter,
		segBytes:   MaxSegmentBytes,
		index:      make(map[uint64]recordLoc),
	}
	s.scratch.New = func() any { b := make([]byte, 0, 4096); return &b }

	names, err := fs.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(names)
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%d.log", &id); err != nil {
			continue
		}
		f, err := fs.OpenFile(name, os.O_RDWR, 0o644)
		if err != nil {
			s.closeFiles()
			return nil, fmt.Errorf("store: %w", err)
		}
		seg := &segment{f: f, id: id}
		s.segs = append(s.segs, seg)
		if err := s.replaySegment(seg); err != nil {
			s.closeFiles()
			return nil, err
		}
	}
	if len(s.segs) == 0 {
		if err := s.addSegment(0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// replaySegment validates seg record by record, indexing each valid record
// and truncating the file at the first invalid one.
//
// Only *structural* invalidity — a short file, a torn header, a CRC
// mismatch — is a torn tail; it marks where a crashed append stopped, and
// truncating there is recovery. An I/O *error* from the filesystem (EIO, an
// injected fault) proves nothing about the bytes: replay must fail the Open
// rather than "recover" by discarding data it merely could not read. A
// transient sick disk at startup must never become permanent data loss.
func (s *Store) replaySegment(seg *segment) error {
	total, err := seg.f.Size()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var off int64
	hdr := make([]byte, recordHeaderLen)
	var buf []byte
	for off < total {
		keyLen, bodyLen, ok, err := s.readHeader(seg, off, total, hdr)
		if err != nil {
			return fmt.Errorf("store: replaying %s at offset %d: %w", segName(seg.id), off, err)
		}
		if !ok {
			break
		}
		n := recordLen(int(keyLen), int(bodyLen))
		if int64(cap(buf)) < n-recordHeaderLen {
			buf = make([]byte, n-recordHeaderLen)
		}
		rest := buf[:n-recordHeaderLen]
		if _, err := seg.f.ReadAt(rest, off+recordHeaderLen); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // file ends mid-record: a torn tail, not a sick disk
			}
			return fmt.Errorf("store: replaying %s at offset %d: %w", segName(seg.id), off, err)
		}
		crc := crc32.NewIEEE()
		crc.Write(hdr)
		crc.Write(rest[:keyLen+bodyLen])
		if crc.Sum32() != binary.LittleEndian.Uint32(rest[keyLen+bodyLen:]) {
			break
		}
		// Newest wins, so a key re-appended after a quarantine replays to
		// its latest record.
		s.index[fingerprint(rest[:keyLen])] = recordLoc{seg: len(s.segs) - 1, off: off, keyLen: keyLen, bodyLen: bodyLen}
		off += n
	}
	if off < total {
		s.recovered += total - off
		if err := seg.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating torn tail of %s: %w", segName(seg.id), err)
		}
	}
	seg.size = off
	return nil
}

// readHeader reads and sanity-checks one record header; ok is false when the
// header itself is torn or the declared lengths cannot fit the file, err is
// non-nil when the filesystem failed outright (which must abort replay, not
// truncate — see replaySegment).
func (s *Store) readHeader(seg *segment, off, total int64, hdr []byte) (keyLen, bodyLen uint32, ok bool, err error) {
	if off+recordHeaderLen > total {
		return 0, 0, false, nil
	}
	if _, err := seg.f.ReadAt(hdr, off); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, 0, false, nil
		}
		return 0, 0, false, err
	}
	keyLen = binary.LittleEndian.Uint32(hdr)
	bodyLen = binary.LittleEndian.Uint32(hdr[4:])
	if keyLen == 0 || keyLen > maxRecordPart || bodyLen > maxRecordPart {
		return 0, 0, false, nil
	}
	if off+recordLen(int(keyLen), int(bodyLen)) > total {
		return 0, 0, false, nil
	}
	return keyLen, bodyLen, true, nil
}

func (s *Store) addSegment(id int) error {
	name := filepath.Join(s.dir, segName(id))
	f, err := s.fs.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segs = append(s.segs, &segment{f: f, id: id})
	return nil
}

func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		seg.f.Close()
	}
}

// Get returns the stored body for key. An index miss answers without
// touching disk; otherwise Get reads exactly one record. Every record read
// re-verifies the CRC before any byte is returned: a record that rots on
// disk after Open is quarantined (de-indexed and counted in
// Stats.Quarantined) and reported as a miss — corrupt bytes are never
// served. A CRC-valid record whose stored key is not key is a fingerprint
// collision: a miss, with the record left in place for the key that owns
// it. Read outcomes feed the health state machine; while Offline a Get
// that would not otherwise touch disk doubles as the recovery probe. The
// returned slice is freshly allocated and owned by the caller.
func (s *Store) Get(key string) ([]byte, bool, error) {
	fp := fingerprint(key) // a pure function of key: no lock needed
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return nil, false, fmt.Errorf("store: closed")
	}
	body, ok, touched, readErr, rotten := s.lookupLocked(key, fp)
	if !touched && Health(s.health.state.Load()) == Offline {
		// This Get was let through as an Offline recovery probe but its key
		// never reached the disk (an index miss); probe with one real read
		// so the consult still gathers evidence.
		touched, readErr = s.probeLocked()
	}
	s.mu.RUnlock()
	if touched {
		if readErr != nil {
			s.health.noteReadError()
		} else {
			s.health.noteReadOK()
		}
	}
	if rotten != nil {
		s.quarantine(*rotten)
	}
	if readErr != nil {
		return nil, false, readErr
	}
	return body, ok, nil
}

// lookupLocked resolves key, whose fingerprint is fp, under the read
// lock. touched reports whether any disk read was attempted; a corrupt
// record is returned for quarantine rather than de-indexed in place (the
// caller holds only the read lock).
func (s *Store) lookupLocked(key string, fp uint64) (body []byte, ok, touched bool, readErr error, rotten *quarantineRec) {
	loc, found := s.index[fp]
	if !found || int(loc.keyLen) != len(key) {
		s.indexMisses.Add(1)
		return nil, false, false, nil, nil
	}
	b, valid, match, err := s.readRecordChecked(loc, key)
	switch {
	case err != nil:
		return nil, false, true, err, nil
	case !valid:
		return nil, false, true, nil, &quarantineRec{fp: fp, loc: loc}
	case !match:
		return nil, false, true, nil, nil // fingerprint collision
	}
	return b, true, true, nil, nil
}

// quarantineRec names one index entry whose record failed its Get-time CRC
// check.
type quarantineRec struct {
	fp  uint64
	loc recordLoc
}

// readRecordChecked reads one whole record into pooled scratch and
// verifies its CRC over header, key and body. valid is false (with nil
// error) when the bytes came back but fail the checksum — the caller
// quarantines the record. match reports whether the stored key is key;
// only then is the body copied out, into a fresh slice with cap == len, so
// a caller that keeps it (the LRU promotes disk hits) keeps exactly the
// body and not the record's header, key and CRC around it.
func (s *Store) readRecordChecked(loc recordLoc, key string) (body []byte, valid, match bool, err error) {
	s.diskReads.Add(1)
	bp := s.scratch.Get().(*[]byte)
	defer s.putScratch(bp)
	n := int(recordLen(int(loc.keyLen), int(loc.bodyLen)))
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	buf := (*bp)[:n]
	if _, err := s.segs[loc.seg].f.ReadAt(buf, loc.off); err != nil {
		return nil, false, false, fmt.Errorf("store: %w", err)
	}
	payload := n - recordTrailerLen
	if crc32.ChecksumIEEE(buf[:payload]) != binary.LittleEndian.Uint32(buf[payload:]) {
		return nil, false, false, nil
	}
	keyEnd := recordHeaderLen + int(loc.keyLen)
	if string(buf[recordHeaderLen:keyEnd]) != key {
		return nil, true, false, nil
	}
	body = make([]byte, payload-keyEnd)
	copy(body, buf[keyEnd:payload])
	return body, true, true, nil
}

// maxPooledRecord bounds the record scratch the pool keeps: one oversized
// record must not pin its buffer for the life of the process.
const maxPooledRecord = 1 << 19

func (s *Store) putScratch(bp *[]byte) {
	if cap(*bp) <= maxPooledRecord {
		s.scratch.Put(bp)
	}
}

// probeLocked performs one read probe under the read lock: a single byte
// from the newest non-empty segment. An empty store has nothing to prove
// reads against, so the probe trivially succeeds.
func (s *Store) probeLocked() (touched bool, err error) {
	for i := len(s.segs) - 1; i >= 0; i-- {
		if s.segs[i].size == 0 {
			continue
		}
		var b [1]byte
		_, err = s.segs[i].f.ReadAt(b[:], 0)
		if err != nil {
			err = fmt.Errorf("store: probe: %w", err)
		}
		return true, err
	}
	return true, nil
}

// quarantine de-indexes a record whose Get-time CRC check failed. The entry
// is removed only if it is still the indexed location (a concurrent
// re-append of the same key must not be dropped).
func (s *Store) quarantine(r quarantineRec) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if cur, ok := s.index[r.fp]; ok && cur == r.loc {
		delete(s.index, r.fp)
		s.quarantined.Add(1)
	}
}

// Put appends (key, body) to the active segment, rotating it at the size
// threshold, and indexes the record. A key whose fingerprint is already
// indexed is skipped without reading the disk: bodies are deterministic in
// their key, so the stored bytes are already the right ones (and a
// colliding key is never stored, which Get reports as a miss). Put does
// not fsync — durability of the latest writes is Sync's job;
// a crash in between loses recent records to recovery truncation, never
// correctness. Write outcomes feed the health state machine: a failed append
// degrades the store to read-only, a successful one recovers Degraded back
// to Healthy.
func (s *Store) Put(key string, body []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("store: empty key")
	}
	fp := fingerprint(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if _, dup := s.index[fp]; dup {
		s.dupPuts.Add(1)
		return nil
	}
	n := recordLen(len(key), len(body))
	active := s.segs[len(s.segs)-1]
	if active.size > 0 && active.size+n > s.segBytes {
		if err := s.addSegment(active.id + 1); err != nil {
			s.health.noteWriteError()
			return err
		}
		active = s.segs[len(s.segs)-1]
	}
	bp := s.scratch.Get().(*[]byte)
	rec := append((*bp)[:0], 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(rec, uint32(len(key)))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(body)))
	rec = append(rec, key...)
	rec = append(rec, body...)
	crc := crc32.ChecksumIEEE(rec)
	rec = binary.LittleEndian.AppendUint32(rec, crc)
	_, err := active.f.WriteAt(rec, active.size)
	*bp = rec
	s.putScratch(bp)
	if err != nil {
		// A failed or torn append leaves overwritable garbage past
		// active.size (never indexed, overwritten by the next append, and
		// truncated by recovery if the process dies first).
		s.health.noteWriteError()
		return fmt.Errorf("store: %w", err)
	}
	s.health.noteWriteOK()
	s.index[fp] = recordLoc{seg: len(s.segs) - 1, off: active.size, keyLen: uint32(len(key)), bodyLen: uint32(len(body))}
	active.size += n
	s.puts.Add(1)
	return nil
}

// Sync flushes the active segment to stable storage. A failed sync degrades
// the store (the write path is suspect) but a successful one does not by
// itself recover it — only a proven append does.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if err := s.segs[len(s.segs)-1].f.Sync(); err != nil {
		s.health.noteWriteError()
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close syncs the active segment and closes every file. The store is
// unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.segs[len(s.segs)-1].f.Sync()
	s.closeFiles()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Len returns the number of distinct keys readable.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats returns an observational snapshot.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Keys:           len(s.index),
		Segments:       len(s.segs),
		RecoveredBytes: s.recovered,
		BloomNegatives: s.indexMisses.Load(),
		DiskReads:      s.diskReads.Load(),
		Puts:           s.puts.Load(),
		DupPuts:        s.dupPuts.Load(),
		Health:         s.Health(),
		Quarantined:    s.quarantined.Load(),
		Degradations:   s.health.degradations.Load(),
		Offlines:       s.health.offlines.Load(),
		Recoveries:     s.health.recoveries.Load(),
	}
}

// InjectTornTail appends n garbage bytes to dir's newest segment file,
// simulating a write torn mid-record by a crash. Recovery on the next Open
// must truncate exactly these bytes. Test and chaos-harness helper — never
// call it on a live store; it writes through the os directly, below any FS
// seam.
func InjectTornTail(dir string, n int) error {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return fmt.Errorf("store: no segments in %s", dir)
	}
	sort.Strings(names)
	f, err := os.OpenFile(names[len(names)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	garbage := make([]byte, n)
	for i := range garbage {
		garbage[i] = 0xff
	}
	_, err = f.Write(garbage)
	return err
}

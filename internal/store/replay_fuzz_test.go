package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// referenceReplay walks segment bytes the plain way the record layout
// reads: header, key, body, CRC, repeated until the first record that is
// short, has an empty key or fails its CRC. It returns where the valid
// prefix ends and each key's newest body in that prefix.
func referenceReplay(data []byte) (valid int, bodies map[string][]byte) {
	bodies = map[string][]byte{}
	for {
		rest := data[valid:]
		if len(rest) < recordHeaderLen {
			return valid, bodies
		}
		keyLen := int64(binary.LittleEndian.Uint32(rest))
		bodyLen := int64(binary.LittleEndian.Uint32(rest[4:]))
		n := recordHeaderLen + keyLen + bodyLen + recordTrailerLen
		if keyLen == 0 || n > int64(len(rest)) {
			return valid, bodies
		}
		payload := rest[:n-recordTrailerLen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[n-recordTrailerLen:]) {
			return valid, bodies
		}
		bodies[string(payload[recordHeaderLen:recordHeaderLen+keyLen])] = payload[recordHeaderLen+keyLen:]
		valid += int(n)
	}
}

// FuzzReplaySegment opens a store over one segment file holding arbitrary
// bytes and holds Open's replay to referenceReplay: Open never fails on
// structural garbage, the truncated file plus Stats.RecoveredBytes is the
// whole input, the store holds exactly the prefix's distinct keys, and
// each of them reads back its newest body.
func FuzzReplaySegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		seg := filepath.Join(dir, segName(0))
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open over %d garbage bytes: %v", len(data), err)
		}
		defer st.Close()
		valid, bodies := referenceReplay(data)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if recovered := st.Stats().RecoveredBytes; fi.Size()+recovered != int64(len(data)) {
			t.Fatalf("kept %d + recovered %d bytes, input is %d", fi.Size(), recovered, len(data))
		}
		if fi.Size() != int64(valid) {
			t.Fatalf("replay kept %d bytes, the valid prefix is %d", fi.Size(), valid)
		}
		if st.Len() != len(bodies) {
			t.Fatalf("Len = %d, the valid prefix holds %d distinct keys", st.Len(), len(bodies))
		}
		for key, want := range bodies {
			got, ok, err := st.Get(key)
			if err != nil || !ok || !bytes.Equal(got, want) {
				t.Fatalf("Get(%q) = (%q, %v, %v), want %q", key, got, ok, err, want)
			}
		}
	})
}

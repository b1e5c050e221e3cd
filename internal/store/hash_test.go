package store

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/serve"
)

// canonicalKey is the serving layer's real canonical key for a seeded
// tasks×machines /v1/iterate request: the keys this store holds.
func canonicalKey(tb testing.TB, tasks, machines int, heuristic string, seed uint64) []byte {
	tb.Helper()
	r := rng.New(seed)
	var b strings.Builder
	b.WriteString(`{"etc":[`)
	for t := 0; t < tasks; t++ {
		if t > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		for m := 0; m < machines; m++ {
			if m > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(r.UniformRange(1, 3000), 'g', -1, 64))
		}
		b.WriteByte(']')
	}
	fmt.Fprintf(&b, `],"heuristic":%q,"ties":"random","seed":%d}`, heuristic, seed)
	key, ok := serve.CanonicalKey("/v1/iterate", []byte(b.String()))
	if !ok {
		tb.Fatalf("no canonical key for %s", b.String())
	}
	return []byte(key)
}

// TestHashSingleWordChangeNeverCollides checks the fold's injectivity at
// every 8-byte word position of real canonical keys: replacing one word
// (every single-bit flip and a run of seeded random words) or one byte of
// the zero-padded tail always changes h1. The fold's step is a bijection of
// the word for a fixed state and of the state for a fixed word, so this
// holds by construction; the test keeps it that way.
func TestHashSingleWordChangeNeverCollides(t *testing.T) {
	src := rng.New(20261017)
	for _, key := range [][]byte{
		canonicalKey(t, 32, 8, "min-min", 1),
		canonicalKey(t, 32, 8, "sufferage", 2),
		canonicalKey(t, 7, 3, "duplex", 3),
	} {
		base := fingerprint(key)
		if len(key)%8 == 0 {
			t.Fatalf("%d-byte key has no tail to check", len(key))
		}
		words := len(key) / 8
		for w := 0; w < words; w++ {
			word := key[8*w : 8*w+8]
			orig := binary.LittleEndian.Uint64(word)
			check := func(v uint64) {
				if v == orig {
					return
				}
				binary.LittleEndian.PutUint64(word, v)
				h1 := fingerprint(key)
				binary.LittleEndian.PutUint64(word, orig)
				if h1 == base {
					t.Fatalf("%d-byte key: word %d changed %#x -> %#x, h1 unchanged", len(key), w, orig, v)
				}
			}
			for bit := 0; bit < 64; bit++ {
				check(orig ^ 1<<bit)
			}
			for i := 0; i < 16; i++ {
				check(src.Uint64())
			}
		}
		for i := 8 * words; i < len(key); i++ {
			orig := key[i]
			for v := 0; v < 256; v++ {
				if byte(v) == orig {
					continue
				}
				key[i] = byte(v)
				h1 := fingerprint(key)
				key[i] = orig
				if h1 == base {
					t.Fatalf("%d-byte key: tail byte %d changed %#x -> %#x, h1 unchanged", len(key), i, orig, v)
				}
			}
		}
	}
}

// TestHashNearDuplicateCorpusNoCollision hashes 208k distinct
// near-duplicates of real 32×8 canonical keys — each base with one ETC cell
// rewritten, so any two differ in one or two cells — and demands no shared
// h1. An index collision would make the colliding key uncacheable (Put
// skips it as a duplicate), so near-duplicate traffic must not produce one.
func TestHashNearDuplicateCorpusNoCollision(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("single-goroutine arithmetic: the plain test run covers it, -race adds only time")
	}
	const perBase = 52000
	seen := make(map[uint64]struct{}, 4*perBase)
	for b, heuristic := range []string{"min-min", "max-min", "sufferage", "mct"} {
		key := canonicalKey(t, 32, 8, heuristic, uint64(100+b))
		// The 32×8 cells are followed only by the 8 ready-time words.
		cells := len(key) - 8*(32*8+8)
		for i := 0; i < perBase; i++ {
			off := cells + 8*(i%256)
			orig := binary.LittleEndian.Uint64(key[off:])
			// A distinct nonzero mantissa change per (cell, i/256): every
			// variant is a different key, and none is the base.
			v := orig ^ uint64(i/256+1)<<8
			binary.LittleEndian.PutUint64(key[off:], v)
			h1 := fingerprint(key)
			binary.LittleEndian.PutUint64(key[off:], orig)
			if _, dup := seen[h1]; dup {
				t.Fatalf("h1 collision at base %d variant %d", b, i)
			}
			seen[h1] = struct{}{}
		}
	}
	if len(seen) != 4*perBase {
		t.Fatalf("hashed %d keys, want %d", len(seen), 4*perBase)
	}
}

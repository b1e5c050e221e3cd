package store

import "math/bits"

// bloom is a fixed-size bloom filter over keys. It exists so that a Get for
// a key the store has never seen costs zero disk reads and zero index
// probes: the common cold-start case is "the LRU missed and the disk has
// nothing either", and that answer should be as close to free as the
// memory-hit path.
//
// Double hashing (Kirsch–Mitzenmacher): the k probe positions derive from
// two independent 64-bit hashes, g_i = h1 + i*h2. Both hashes are fixed
// functions of the key bytes — no seeds, no clock — so filter behavior is
// deterministic across runs and platforms.
type bloom struct {
	bits []uint64
	mask uint64 // len(bits)*64 - 1; the bit count is a power of two
}

// bloomHashes is k: with the default 2^17 bits and the cache-scale key
// counts this tier sees (thousands, not millions), four probes keep the
// false-positive rate far below one in a thousand.
const bloomHashes = 4

// newBloom builds a filter with at least nbits bits, rounded up to a power
// of two so probe positions reduce with a mask instead of a modulo.
func newBloom(nbits int) *bloom {
	words := 1
	for words*64 < nbits {
		words *= 2
	}
	return &bloom{bits: make([]uint64, words), mask: uint64(words)*64 - 1}
}

// Key-hash constants. hashMul is odd, so multiplying by it is a bijection
// on 64-bit words; hashRot moves the product's well-mixed high bits down
// into the low bits the next word lands on.
const (
	hashSeed = 0x243f6a8885a308d3
	hashMul  = 0x9e3779b97f4a7c15
	hashRot  = 29
)

// hash128 returns two 64-bit hashes of key: h1 is the store's index
// fingerprint and the filter's first probe, h2 the probe stride.
//
// h1 folds the key eight bytes at a time (little-endian words, the tail
// zero-padded) through h = rotl((h ^ w) * hashMul, hashRot). For a fixed
// state each step is a bijection of the word, and for a fixed word a
// bijection of the state, so two keys of the same length that differ in
// one word (or only in their tail) always reach different states: they can
// never share h1. The length is mixed in last and a murmur3 fmix64 — also
// a bijection — avalanches the state. At one multiply per word a 2.1 KB
// canonical key hashes in about 0.6 µs, and Get and Put take the hash
// before their lock.
//
// h2 is a splitmix64 finalizer applied to h1. A naive h2 (one extra step
// over h1, or any other near-linear tweak) is a fixed bijection that
// correlates the probe strides and inflates the false-positive rate ~100×
// over theory — caught and pinned by TestBloomFalsePositiveRate. Replay
// hashes record bytes in place; lookups hash the caller's string.
func hash128[K string | []byte](key K) (h1, h2 uint64) {
	n := len(key)
	h := uint64(hashSeed)
	for ; len(key) >= 8; key = key[8:] {
		w := uint64(key[0]) | uint64(key[1])<<8 | uint64(key[2])<<16 | uint64(key[3])<<24 |
			uint64(key[4])<<32 | uint64(key[5])<<40 | uint64(key[6])<<48 | uint64(key[7])<<56
		h = bits.RotateLeft64((h^w)*hashMul, hashRot)
	}
	if len(key) > 0 {
		var w uint64
		for i := len(key) - 1; i >= 0; i-- {
			w = w<<8 | uint64(key[i])
		}
		h = bits.RotateLeft64((h^w)*hashMul, hashRot)
	}
	h ^= uint64(n)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	h1 = h
	h2 = h1 + 0x9e3779b97f4a7c15
	h2 = (h2 ^ (h2 >> 30)) * 0xbf58476d1ce4e5b9
	h2 = (h2 ^ (h2 >> 27)) * 0x94d049bb133111eb
	h2 ^= h2 >> 31
	h2 |= 1 // odd, so g_i strides cover the table
	return h1, h2
}

func (b *bloom) insert(h1, h2 uint64) {
	for i := uint64(0); i < bloomHashes; i++ {
		pos := (h1 + i*h2) & b.mask
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

// maybe reports whether the key hashing to (h1, h2) might be present. False
// means definitely absent; true means "check the index".
func (b *bloom) maybe(h1, h2 uint64) bool {
	for i := uint64(0); i < bloomHashes; i++ {
		pos := (h1 + i*h2) & b.mask
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

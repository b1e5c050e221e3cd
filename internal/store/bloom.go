package store

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

// FNV-1a constants (hash/fnv), inlined so hashing a key is one pass over
// the string with no []byte conversion and no hash.Hash64 heap escape —
// the filter guards the Get-miss fast path, where those two allocations
// dominated the cost.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hash128 returns two independent 64-bit hashes of key: h1 is FNV-1a over
// the key bytes (and is also the store's index fingerprint), h2 is a
// splitmix64 finalizer applied to h1. A naive h2 (one extra FNV step over
// h1, or any other near-linear tweak) is a fixed bijection that correlates
// the probe strides and inflates the false-positive rate ~100× over
// theory — caught and pinned by TestBloomFalsePositiveRate. The splitmix64
// finalizer fully avalanches h1, giving effectively independent halves
// from a single key pass. Replay hashes record bytes in place; lookups
// hash the caller's string.
func hash128[K string | []byte](key K) (h1, h2 uint64) {
	h1 = fnvOffset64
	for i := 0; i < len(key); i++ {
		h1 ^= uint64(key[i])
		h1 *= fnvPrime64
	}
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

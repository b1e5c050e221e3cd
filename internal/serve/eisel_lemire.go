package serve

import (
	"math"
	"math/big"
	"math/bits"
)

// eiselLemire converts man × 10^exp10 (man below 10^19) to the nearest
// float64, ties to even, by the Eisel–Lemire algorithm (Lemire, "Number
// Parsing at a Gigabyte per Second", 2021) — the algorithm strconv runs
// after its own digit scan, so every result it reports is the one
// strconv.ParseFloat returns. ok is false when the algorithm cannot decide
// (a product too close to a rounding boundary), when exp10 is outside the
// table, and for results that are subnormal or overflow; the caller then
// asks strconv.
func eiselLemire(man uint64, exp10 int, neg bool) (f float64, ok bool) {
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < minPow10 || exp10 > maxPow10 {
		return 0, false
	}
	pow := &pow10Table[exp10-minPow10]

	// Normalize the mantissa so its top bit is set; the binary exponent of
	// 10^exp10 is about exp10·log2(10) ≈ exp10·217706/2^16.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz)

	// 64×128-bit product, widened to the low word only when the high word's
	// truncated bits could carry into the kept ones.
	hi, lo := bits.Mul64(man, pow[1])
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := hi, lo+yHi
		if mergedLo < lo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mergedHi, mergedLo
	}

	// Keep 54 bits, then round to 53: an exact halfway product is
	// ambiguous here (the table entry is truncated) and left to strconv.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	// exp2 is unsigned: 0 (or a wrapped negative) is subnormal territory,
	// 0x7FF and above is infinity.
	if exp2-1 >= 0x7FF-1 {
		return 0, false
	}
	b := exp2<<52 | mant&(1<<52-1)
	if neg {
		b |= 1 << 63
	}
	return math.Float64frombits(b), true
}

// The powers of ten the table covers, inclusive. Beyond them any mantissa
// below 10^19 gives zero or infinity, which strconv reports.
const (
	minPow10 = -348
	maxPow10 = 347
)

// pow10Table[e-minPow10] is 10^e as a 128-bit mantissa rounded down,
// {low word, high word}, normalized so the high bit is set; the binary
// exponent is implied by eiselLemire's linear estimate.
var pow10Table = buildPow10Table()

// buildPow10Table computes the table exactly with math/big: for e ≥ 0 the
// top 128 bits of 10^e, for e < 0 the 128-bit quotient ⌊2^k / 10^-e⌋.
func buildPow10Table() *[maxPow10 - minPow10 + 1][2]uint64 {
	var t [maxPow10 - minPow10 + 1][2]uint64
	one, ten := big.NewInt(1), big.NewInt(10)
	low64 := new(big.Int).Sub(new(big.Int).Lsh(one, 64), one)
	p, v := new(big.Int), new(big.Int)
	for e := minPow10; e <= maxPow10; e++ {
		p.Exp(ten, big.NewInt(int64(max(e, -e))), nil)
		n := p.BitLen()
		switch {
		case e < 0:
			// 10^-e is never a power of two, so the quotient has exactly
			// 128 bits.
			v.Quo(v.Lsh(one, uint(127+n)), p)
		case n > 128:
			v.Rsh(p, uint(n-128))
		default:
			v.Lsh(p, uint(128-n))
		}
		t[e-minPow10][1] = new(big.Int).Rsh(v, 64).Uint64()
		t[e-minPow10][0] = new(big.Int).And(v, low64).Uint64()
	}
	return &t
}

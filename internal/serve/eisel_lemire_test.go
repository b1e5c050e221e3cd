package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/rng"
)

// scanNumber runs the decoder's number scanner and converter over s, as
// decodeFast does for an ETC cell or ready time.
func scanNumber(s []byte) (f float64, end int, scanned, converted bool) {
	d := decoder{b: s}
	n, ok := d.number()
	if !ok {
		return 0, 0, false, false
	}
	f, converted = n.float()
	return f, d.i, true, converted
}

// checkConversion holds the converter to strconv.ParseFloat(text, 64) on
// the bytes the scanner accepted: the same accept/reject verdict and, when
// both accept, the same bits (so -0 and 0 differ).
func checkConversion(t *testing.T, text []byte, f float64, converted bool) {
	t.Helper()
	want, err := strconv.ParseFloat(string(text), 64)
	if converted != (err == nil) {
		t.Fatalf("%q: converter ok=%v, strconv err=%v", text, converted, err)
	}
	if converted && math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("%q: converter %v (%#016x), strconv %v (%#016x)",
			text, f, math.Float64bits(f), want, math.Float64bits(want))
	}
}

// checkWholeNumber is checkConversion for an s that is one complete JSON
// number: the scanner must accept all of it.
func checkWholeNumber(t *testing.T, s string) {
	t.Helper()
	f, end, scanned, converted := scanNumber([]byte(s))
	if !scanned || end != len(s) {
		t.Fatalf("%q: scanned=%v end=%d, want the whole number", s, scanned, end)
	}
	checkConversion(t, []byte(s), f, converted)
}

// numberEdges are the inputs most likely to split a fast converter from
// strconv: subnormals and the normal/subnormal boundary, the float64
// extremes, halfway cases Eisel–Lemire must hand back, mantissas past 19
// digits, exponents outside the table and beyond float64, signed zeros.
var numberEdges = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0e-0", "0e99999", "-0E+99999", "0.000e-400",
	"1", "-1", "5", "1.5", "3000", "1e0", "1E+0", "10e-1",
	"4.9406564584124654e-324", "5e-324", "2e-324", "3e-324", "1e-400",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308",
	"2.225073858507201136057409796709131975934819546351645648023426109724822222021076945516529523908135087914149158913039621106870086438694594645527657207407820621743379988141063267329253552286881372149012981122451451889849057222307285255133155755015914397476397983411801999323962548289017107081850690630666655994938275772572015763062690663332647565300009245888316433037779791869612049497390377829704905051080609940730262937128958950003583799967207254304360284078895771796150945516748243471030702609144621572289880258182545180325707018860872113128079512233426288368622321503775666622503982534335974568884423900265498198385487948292206894721689831099698365846814022854243330660339850886445804001034933970427567186443383770486037861622771738545623065874679014086723327636718749999999999999999999999999999999999999e-308",
	"1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623158e308",
	"1.7976931348623159e308", "1.8e308", "1e309", "-1e309", "1e400",
	"9007199254740993", "9007199254740992", "9007199254740994", "9007199254740995",
	"1e23", "8.988465674311579e+307", "1e22", "1e-22", "123456789012345678e-10",
	"1234567890123456789", "12345678901234567890", "12345678901234567891",
	"1234567890123456789012345678901234567890e-20", "0.1234567890123456789012",
	"0.000000000000000000000000000001234567890123456789", "18446744073709551615",
	"1e-348", "1e-349", "1e347", "1e348", "7e-27", "3.4028235677973366e38",
	"1090544144181609348835077142190", "1.00000005960464477550",
}

func TestParseNumberEdges(t *testing.T) {
	for _, s := range numberEdges {
		checkWholeNumber(t, s)
	}
	// A long run of leading fraction zeros against a five-digit exponent
	// (1e304), and against an exponent too long to accumulate, which the
	// decoder hands to strconv (strconv saturates it too: 1e299).
	zeros := "0." + strings.Repeat("0", 9700) + "1"
	checkWholeNumber(t, zeros+"e10005")
	checkWholeNumber(t, zeros+"e100005")
}

// TestParseNumberMatchesStrconv is the seeded property test: random float64
// bit patterns, and cells in the ETC range clients send, written by
// strconv.FormatFloat in 'g', 'e' and 'f' at every precision from -1
// (shortest) to 24, convert to the same bits strconv.ParseFloat gives.
func TestParseNumberMatchesStrconv(t *testing.T) {
	r := rng.New(20210131)
	var buf []byte
	for i := 0; i < 1500; i++ {
		v := math.Float64frombits(r.Uint64())
		if i%3 == 0 {
			v = r.UniformRange(1, 3000)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		for _, format := range []byte{'g', 'e', 'f'} {
			for prec := -1; prec <= 24; prec++ {
				buf = strconv.AppendFloat(buf[:0], v, format, prec, 64)
				checkWholeNumber(t, string(buf))
			}
		}
	}
}

// TestPow10TablePins pins three table entries — both ends and 10^0 —
// against the 128-bit values published with the algorithm (and shipped in
// strconv), so a slip in buildPow10Table cannot hide behind the fallback.
func TestPow10TablePins(t *testing.T) {
	for _, tc := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{0, 0x0000000000000000, 0x8000000000000000},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if got := pow10Table[tc.exp10-minPow10]; got != [2]uint64{tc.lo, tc.hi} {
			t.Errorf("10^%d: table {%#016x, %#016x}, want {%#016x, %#016x}",
				tc.exp10, got[0], got[1], tc.lo, tc.hi)
		}
	}
}

// FuzzParseNumber holds the scanner to encoding/json and the converter to
// strconv over arbitrary bytes: the scanner accepts exactly when a JSON
// decoder reads a number token at the start of the input, it stops where
// that token ends, and whatever it accepted converts to strconv's bits.
func FuzzParseNumber(f *testing.F) {
	for _, s := range numberEdges {
		f.Add([]byte(s))
	}
	for _, s := range []string{"01", "1.", "1.x", "-", "+1", ".5", "1e", "1e+", "1.5e5e", "1]", "1,2", "-01", "0x10", "Infinity", " 1"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) {
		dec := json.NewDecoder(bytes.NewReader(s))
		dec.UseNumber()
		var v any
		err := dec.Decode(&v)
		_, isNumber := v.(json.Number)
		wantScan := err == nil && isNumber && len(s) > 0 && skipSpace(s, 0) == 0

		got, end, scanned, converted := scanNumber(s)
		if scanned != wantScan {
			t.Fatalf("%q: scanner accepted=%v, encoding/json read a number=%v (err %v)", s, scanned, wantScan, err)
		}
		if !scanned {
			return
		}
		if int64(end) != dec.InputOffset() {
			t.Fatalf("%q: scanner stopped at %d, encoding/json at %d", s, end, dec.InputOffset())
		}
		checkConversion(t, s[:end], got, converted)
	})
}

// BenchmarkParseNumber converts one shortest-form 17-digit cell, the shape
// clients write ('g', -1): the decoder's scan-and-convert against
// strconv.ParseFloat alone, which the decoder used to run after its scan.
func BenchmarkParseNumber(b *testing.B) {
	cell := []byte("2718.2818284590453")
	b.Run("decoder", func(b *testing.B) {
		for b.Loop() {
			if _, _, _, ok := scanNumber(cell); !ok {
				b.Fatal("not converted")
			}
		}
	})
	b.Run("strconv", func(b *testing.B) {
		for b.Loop() {
			if _, err := strconv.ParseFloat(string(cell), 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

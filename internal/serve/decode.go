package serve

import (
	"strconv"
	"sync"
)

// decodeFast is the one-pass decoder for the canonical subset of the
// request wire format: exact lowercase field names, each at most once;
// strings of printable ASCII without escapes; numbers in the strict JSON
// grammar, each converted in the scan that finds it; true/false for
// "seeded"; nothing but whitespace after the closing brace. "endpoint" is a
// known field only when item is set (a /v1/batch item). ok is false for
// every other body — null values, escapes, case-folded or repeated names,
// out-of-range numbers, trailing data — and the caller falls back to
// encoding/json, which alone produces error messages. Whatever decodeFast accepts, encoding/json
// accepts with a reflect.DeepEqual result: absent slices stay nil, "[]"
// decodes to an empty non-nil slice (FuzzDecodeRequest pins this).
//
// Allocation is bounded by the result: the ETC rows header, one backing
// array shared by every row, the ready array and the strings.
func decodeFast(body []byte, item bool) (it BatchItem, ok bool) {
	d := decoder{b: body}
	d.skip()
	if !d.eat('{') {
		return BatchItem{}, false
	}
	d.skip()
	if d.eat('}') {
		return it, d.end()
	}
	var seen uint8
	for {
		name, ok := d.str()
		if !ok {
			return BatchItem{}, false
		}
		d.skip()
		if !d.eat(':') {
			return BatchItem{}, false
		}
		d.skip()
		var bit uint8
		switch string(name) {
		case "etc":
			bit = 1 << 0
			it.ETC, ok = d.matrix()
		case "ready":
			bit = 1 << 1
			it.Ready, ok = d.floats()
		case "heuristic":
			bit = 1 << 2
			it.Heuristic, ok = d.text()
		case "ties":
			bit = 1 << 3
			it.Ties, ok = d.text()
		case "seed":
			bit = 1 << 4
			var n num
			if n, ok = d.number(); ok {
				it.Seed, ok = parseUint(n.text)
			}
		case "seeded":
			bit = 1 << 5
			it.Seeded, ok = d.boolean()
		case "timeout_ms":
			bit = 1 << 6
			var n num
			if n, ok = d.number(); ok {
				it.TimeoutMS, ok = parseInt(n.text)
			}
		case "endpoint":
			bit = 1 << 7
			if !item {
				return BatchItem{}, false
			}
			it.Endpoint, ok = d.text()
		default:
			return BatchItem{}, false
		}
		if !ok || seen&bit != 0 {
			return BatchItem{}, false
		}
		seen |= bit
		d.skip()
		if d.eat('}') {
			return it, d.end()
		}
		if !d.eat(',') {
			return BatchItem{}, false
		}
		d.skip()
	}
}

// decoder is decodeFast's cursor over the body.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) skip() { d.i = skipSpace(d.b, d.i) }

// end reports whether only whitespace remains.
func (d *decoder) end() bool { return skipSpace(d.b, d.i) == len(d.b) }

func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// str scans a string of printable ASCII without escapes and returns its
// contents, aliasing the body.
func (d *decoder) str() ([]byte, bool) {
	if !d.eat('"') {
		return nil, false
	}
	start := d.i
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// text is str copied out of the body.
func (d *decoder) text() (string, bool) {
	s, ok := d.str()
	return string(s), ok
}

func (d *decoder) boolean() (bool, bool) {
	rest := d.b[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}

// num is one scanned JSON number: its bytes and, unless slow is set, its
// exact value man × 10^exp10.
type num struct {
	text  []byte
	man   uint64 // the first 19 significant digits
	exp10 int
	neg   bool
	// slow marks a value man × 10^exp10 does not hold exactly: a nonzero
	// digit past the 19th, or an exponent too long to accumulate.
	slow bool
}

// maxMantDigits is how many significant decimal digits a uint64 always holds.
const maxMantDigits = 19

// number scans one number in the strict JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, accumulating its mantissa
// and decimal exponent in the same pass; the cursor lives in locals so the
// digit loops stay in registers. Whatever follows ("01", "1x") is the
// caller's delimiter check to fail.
func (d *decoder) number() (num, bool) {
	b, i := d.b, d.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp10, slow := 0, 0, false // nd counts the significant digits in man
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if nd < maxMantDigits {
				man = man*10 + uint64(b[i]-'0')
				nd++
				continue
			}
			exp10++
			slow = slow || b[i] != '0'
		}
	default:
		return num{}, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		from := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if nd < maxMantDigits {
				man = man*10 + uint64(b[i]-'0')
				if man != 0 { // leading zeros are not significant
					nd++
				}
				exp10--
				continue
			}
			slow = slow || b[i] != '0'
		}
		if i == from {
			return num{}, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		e, from := 0, i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			} else {
				slow = true
			}
		}
		if i == from {
			return num{}, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	d.i = i
	return num{text: b[start:i], man: man, exp10: exp10, neg: neg, slow: slow}, true
}

// float converts n exactly as strconv.ParseFloat(n.text, 64) does: by
// Eisel–Lemire when n holds its value and the algorithm decides, else by
// strconv itself. ok is false for values out of float64 range.
func (n num) float() (float64, bool) {
	if !n.slow {
		if f, ok := eiselLemire(n.man, n.exp10, n.neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(n.text), 64)
	return f, err == nil
}

// The strconv parsers copy their input into a NumError only on failure,
// so these conversions stay on the stack for ordinary-length numbers.
func parseUint(n []byte) (uint64, bool) {
	u, err := strconv.ParseUint(string(n), 10, 64)
	return u, err == nil
}

func parseInt(n []byte) (int64, bool) {
	v, err := strconv.ParseInt(string(n), 10, 64)
	return v, err == nil
}

// numScratch collects a matrix's cells and row boundaries before they are
// copied into exact-size result slices.
type numScratch struct {
	vals []float64
	ends []int
}

var numScratchPool = sync.Pool{New: func() any { return new(numScratch) }}

// maxPooledCells bounds the scratch a pool keeps: one oversized matrix must
// not pin its buffers for the life of the process.
const maxPooledCells = 1 << 16

// floatsInto appends one array of numbers — "[" number ("," number)* "]"
// or "[]" — to vals.
func (d *decoder) floatsInto(vals []float64) ([]float64, bool) {
	if !d.eat('[') {
		return vals, false
	}
	d.skip()
	if d.eat(']') {
		return vals, true
	}
	for {
		n, ok := d.number()
		if !ok {
			return vals, false
		}
		f, ok := n.float()
		vals = append(vals, f)
		if !ok {
			return vals, false
		}
		d.skip()
		if d.eat(']') {
			return vals, true
		}
		if !d.eat(',') {
			return vals, false
		}
		d.skip()
	}
}

// floats decodes an array of numbers into an exact-size slice; "[]" yields
// an empty non-nil slice, as encoding/json does.
func (d *decoder) floats() ([]float64, bool) {
	sc := numScratchPool.Get().(*numScratch)
	defer putNumScratch(sc)
	var ok bool
	if sc.vals, ok = d.floatsInto(sc.vals[:0]); !ok {
		return nil, false
	}
	return append(make([]float64, 0, len(sc.vals)), sc.vals...), true
}

// matrix decodes an array of number arrays. Every row is a capacity-capped
// window of one backing array, so no row can grow into its neighbour.
func (d *decoder) matrix() ([][]float64, bool) {
	sc := numScratchPool.Get().(*numScratch)
	defer putNumScratch(sc)
	sc.vals, sc.ends = sc.vals[:0], sc.ends[:0]
	if !d.eat('[') {
		return nil, false
	}
	d.skip()
	if !d.eat(']') {
		for {
			var ok bool
			if sc.vals, ok = d.floatsInto(sc.vals); !ok {
				return nil, false
			}
			sc.ends = append(sc.ends, len(sc.vals))
			d.skip()
			if d.eat(']') {
				break
			}
			if !d.eat(',') {
				return nil, false
			}
			d.skip()
		}
	}
	back := append(make([]float64, 0, len(sc.vals)), sc.vals...)
	rows := make([][]float64, len(sc.ends))
	start := 0
	for r, end := range sc.ends {
		rows[r] = back[start:end:end]
		start = end
	}
	return rows, true
}

func putNumScratch(sc *numScratch) {
	if cap(sc.vals) <= maxPooledCells && cap(sc.ends) <= maxPooledCells {
		numScratchPool.Put(sc)
	}
}

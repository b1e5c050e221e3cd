package serve

import "strconv"

// flatRequest is a scheduling request with its matrix flattened row-major:
// what the canonical key encodes (see flatRequest.parsed), plus the
// timeout. decodeFast fills one from a canonical body, its strings
// aliasing the body and its cells and ready times the request scratch;
// admitRequest fills one from a validated encoding/json value.
type flatRequest struct {
	endpoint  []byte // batch items only
	heuristic []byte
	ties      []byte // as sent: empty means "det"
	seed      uint64
	seeded    bool
	timeoutMS int64
	tasks     int
	machines  int
	cells     []float64 // tasks×machines, row-major
	ready     []float64
	hasReady  bool // "ready" was sent ("[]" included)
}

// decodeFast is the one-pass decoder for the canonical subset of the
// request wire format: exact lowercase field names, each at most once;
// strings of printable ASCII without escapes; numbers in the strict JSON
// grammar, each converted in the scan that finds it; true/false for
// "seeded"; nothing but whitespace after the closing brace. Its matrix
// must be one a key can be written for: one or more rows of the same
// non-zero length, every cell positive and finite, checked in the same
// scan. "endpoint" is a known field only when item is set (a /v1/batch
// item). ok is false for every other body — null values, escapes,
// case-folded or repeated names, out-of-range numbers, trailing data, an
// empty, ragged or invalid matrix — and the caller falls back to
// encoding/json, which alone produces 400 messages, and validateRequest,
// which alone reports a matrix's cell-level 422s.
// Whatever decodeFast accepts, encoding/json accepts with the same values
// (FuzzDecodeRequest pins this).
//
// The cells and ready times go to sc's buffers and the strings alias
// body, so decoding allocates nothing once the scratch has grown.
func decodeFast(body []byte, item bool, sc *reqScratch) (r flatRequest, ok bool) {
	d := decoder{b: body}
	d.skip()
	if !d.eat('{') {
		return flatRequest{}, false
	}
	d.skip()
	if d.eat('}') {
		return flatRequest{}, false // no matrix
	}
	var seen uint8
	for {
		name, ok := d.str()
		if !ok {
			return flatRequest{}, false
		}
		d.skip()
		if !d.eat(':') {
			return flatRequest{}, false
		}
		d.skip()
		var bit uint8
		switch string(name) {
		case "etc":
			bit = 1 << 0
			sc.cells, r.tasks, r.machines, ok = d.matrix(sc.cells[:0])
			r.cells = sc.cells
		case "ready":
			bit = 1 << 1
			sc.ready, ok = d.floatsInto(sc.ready[:0], false)
			r.ready, r.hasReady = sc.ready, true
		case "heuristic":
			bit = 1 << 2
			r.heuristic, ok = d.str()
		case "ties":
			bit = 1 << 3
			r.ties, ok = d.str()
		case "seed":
			bit = 1 << 4
			var n []byte
			if n, ok = d.numText(); ok {
				r.seed, ok = parseUint(n)
			}
		case "seeded":
			bit = 1 << 5
			r.seeded, ok = d.boolean()
		case "timeout_ms":
			bit = 1 << 6
			var n []byte
			if n, ok = d.numText(); ok {
				r.timeoutMS, ok = parseInt(n)
			}
		case "endpoint":
			bit = 1 << 7
			if !item {
				return flatRequest{}, false
			}
			r.endpoint, ok = d.str()
		default:
			return flatRequest{}, false
		}
		if !ok || seen&bit != 0 {
			return flatRequest{}, false
		}
		seen |= bit
		d.skip()
		if d.eat('}') {
			return r, seen&1 != 0 && d.end()
		}
		if !d.eat(',') {
			return flatRequest{}, false
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

// maxMantDigits is how many significant decimal digits a uint64 always holds.
const maxMantDigits = 19

// scan scans one number in the strict JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, accumulating its exact
// value man × 10^exp10 in the same pass; slow marks a value that does not
// hold exactly (a nonzero digit past the 19th, or an exponent too long to
// accumulate). The cursor lives in locals so the digit loops stay in
// registers, and it moves only when a number was scanned. Whatever follows
// ("01", "1x") is the caller's delimiter check to fail.
func (d *decoder) scan() (man uint64, exp10 int, neg, slow, ok bool) {
	b, i := d.b, d.i
	neg = i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	nd := 0 // the significant digits in man
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
		return 0, 0, false, false, false
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
			return 0, 0, false, false, false
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
			return 0, 0, false, false, false
		}
		if eneg {
			e = -e
		}
		exp10 += e
	}
	d.i = i
	return man, exp10, neg, slow, true
}

// float scans one number and converts it exactly as strconv.ParseFloat
// does: by Eisel–Lemire when the scan holds its value and the algorithm
// decides, else by strconv itself. ok is false when no number is there
// (the cursor stays put) and for values out of float64 range (the cursor
// moves past the number).
func (d *decoder) float() (float64, bool) {
	start := d.i
	man, exp10, neg, slow, ok := d.scan()
	if !ok {
		return 0, false
	}
	if !slow {
		if f, ok := eiselLemire(man, exp10, neg); ok {
			return f, true
		}
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	return f, err == nil
}

// numText scans one number and returns its bytes.
func (d *decoder) numText() ([]byte, bool) {
	start := d.i
	_, _, _, _, ok := d.scan()
	return d.b[start:d.i], ok
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

// floatsInto appends one array of numbers — "[" number ("," number)* "]"
// or "[]" — to vals. With positive set it takes only positive numbers (a
// converted number is always finite), stopping at the first that is not.
func (d *decoder) floatsInto(vals []float64, positive bool) ([]float64, bool) {
	if !d.eat('[') {
		return vals, false
	}
	d.skip()
	if d.eat(']') {
		return vals, true
	}
	for {
		f, ok := d.float()
		if !ok || positive && !(f > 0) {
			return vals, false
		}
		vals = append(vals, f)
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

// matrix appends an array of number arrays to vals, row-major, and
// returns its shape. It accepts only what a key can be written for — at
// least one row, every row as long as the first and non-empty, every cell
// positive and finite — and stops at the first cell or row that is not.
func (d *decoder) matrix(vals []float64) (out []float64, rows, cols int, ok bool) {
	if !d.eat('[') {
		return vals, 0, 0, false
	}
	d.skip()
	for {
		start := len(vals)
		if vals, ok = d.floatsInto(vals, true); !ok {
			return vals, 0, 0, false
		}
		if rows == 0 {
			cols = len(vals) - start
		}
		if cols == 0 || len(vals)-start != cols {
			return vals, 0, 0, false
		}
		rows++
		d.skip()
		if d.eat(']') {
			return vals, rows, cols, true
		}
		if !d.eat(',') {
			return vals, 0, 0, false
		}
		d.skip()
	}
}

package serve

import (
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The response encoders: append-based writers for MapResponse and
// IterateResponse that produce exactly the bytes json.Marshal would —
// struct field order, compact separators, encoding/json's float and string
// rules, null for nil slices — without reflection. The differential tests
// in encode_test.go hold them to json.Marshal byte for byte.

// encodeBufPool holds encoding scratch; marshalResponse copies each body out
// at its exact size because the LRU keeps it.
var encodeBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// maxPooledEncodeBuf bounds the scratch the pool keeps.
const maxPooledEncodeBuf = 1 << 20

// marshalResponse produces the canonical response bytes (compact JSON plus
// a trailing newline) of a *MapResponse or *IterateResponse. Field order is
// fixed by the encoders, which is what lets cache hits be byte-identical to
// fresh computations.
func marshalResponse(v any) ([]byte, *apiError) {
	bp := encodeBufPool.Get().(*[]byte)
	e := jsonEncoder{b: (*bp)[:0]}
	switch r := v.(type) {
	case *MapResponse:
		e.mapResponse(r)
	case *IterateResponse:
		e.iterateResponse(r)
	default:
		encodeBufPool.Put(bp)
		return nil, internalError("marshaling unsupported response type %T", v)
	}
	var body []byte
	if e.err == nil {
		body = make([]byte, len(e.b)+1)
		copy(body, e.b)
		body[len(e.b)] = '\n'
	}
	if cap(e.b) <= maxPooledEncodeBuf {
		*bp = e.b
		encodeBufPool.Put(bp)
	}
	return body, e.err
}

// jsonEncoder appends JSON to b. err holds the first value encoding/json
// would refuse (a NaN or infinite float), with json.Marshal's message.
type jsonEncoder struct {
	b   []byte
	err *apiError
}

// header writes the fields both responses open with.
func (e *jsonEncoder) header(heuristic, ties string, seed uint64, tasks, machines int) {
	e.b = append(e.b, `{"heuristic":`...)
	e.str(heuristic)
	e.b = append(e.b, `,"ties":`...)
	e.str(ties)
	e.b = append(e.b, `,"seed":`...)
	e.b = strconv.AppendUint(e.b, seed, 10)
	e.b = append(e.b, `,"tasks":`...)
	e.b = strconv.AppendInt(e.b, int64(tasks), 10)
	e.b = append(e.b, `,"machines":`...)
	e.b = strconv.AppendInt(e.b, int64(machines), 10)
}

func (e *jsonEncoder) mapResponse(r *MapResponse) {
	e.header(r.Heuristic, r.Ties, r.Seed, r.Tasks, r.Machines)
	e.b = append(e.b, `,"assign":`...)
	e.ints(r.Assign)
	e.b = append(e.b, `,"completion":`...)
	e.floats(r.Completion)
	e.b = append(e.b, `,"makespan":`...)
	e.float(r.Makespan)
	e.b = append(e.b, '}')
}

func (e *jsonEncoder) iterateResponse(r *IterateResponse) {
	e.header(r.Heuristic, r.Ties, r.Seed, r.Tasks, r.Machines)
	e.b = append(e.b, `,"iterations":`...)
	if r.Iterations == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i := range r.Iterations {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.iteration(&r.Iterations[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"final_assign":`...)
	e.ints(r.FinalAssign)
	e.b = append(e.b, `,"final_completion":`...)
	e.floats(r.FinalCompletion)
	e.b = append(e.b, `,"original_makespan":`...)
	e.float(r.OriginalMakespan)
	e.b = append(e.b, `,"final_makespan":`...)
	e.float(r.FinalMakespan)
	e.b = append(e.b, `,"makespan_increased":`...)
	e.b = strconv.AppendBool(e.b, r.MakespanIncreased)
	e.b = append(e.b, `,"outcomes":`...)
	if r.Outcomes == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		for i, o := range r.Outcomes {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.str(o)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
}

func (e *jsonEncoder) iteration(it *IterationResult) {
	e.b = append(e.b, `{"index":`...)
	e.b = strconv.AppendInt(e.b, int64(it.Index), 10)
	e.b = append(e.b, `,"tasks":`...)
	e.ints(it.Tasks)
	e.b = append(e.b, `,"machines":`...)
	e.ints(it.Machines)
	e.b = append(e.b, `,"assign":`...)
	e.ints(it.Assign)
	e.b = append(e.b, `,"completion":`...)
	e.floats(it.Completion)
	e.b = append(e.b, `,"makespan":`...)
	e.float(it.Makespan)
	e.b = append(e.b, `,"makespan_machine":`...)
	e.b = strconv.AppendInt(e.b, int64(it.MakespanMachine), 10)
	e.b = append(e.b, `,"frozen":`...)
	e.b = strconv.AppendInt(e.b, int64(it.Frozen), 10)
	e.b = append(e.b, '}')
}

func (e *jsonEncoder) ints(v []int) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.b = strconv.AppendInt(e.b, int64(x), 10)
	}
	e.b = append(e.b, ']')
}

func (e *jsonEncoder) floats(v []float64) {
	if v == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.float(x)
	}
	e.b = append(e.b, ']')
}

// float follows encoding/json's float64 rule: shortest round-trip digits,
// 'f' format except 'e' below 1e-6 or at/above 1e21, with a two-digit
// negative exponent shortened (e-09 → e-9).
func (e *jsonEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = internalError("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// str writes s as a JSON string with encoding/json's escaping (HTML-safe:
// <, > and & are escaped too; invalid UTF-8 becomes U+FFFD; U+2028 and
// U+2029 are escaped).
func (e *jsonEncoder) str(s string) {
	const hex = "0123456789abcdef"
	e.b = append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			e.b = append(e.b, s[start:i]...)
			switch c {
			case '"', '\\':
				e.b = append(e.b, '\\', c)
			case '\b':
				e.b = append(e.b, '\\', 'b')
			case '\f':
				e.b = append(e.b, '\\', 'f')
			case '\n':
				e.b = append(e.b, '\\', 'n')
			case '\r':
				e.b = append(e.b, '\\', 'r')
			case '\t':
				e.b = append(e.b, '\\', 't')
			default:
				e.b = append(e.b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			e.b = append(e.b, s[start:i]...)
			e.b = append(e.b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	e.b = append(e.b, s[start:]...)
	e.b = append(e.b, '"')
}

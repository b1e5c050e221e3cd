package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/obs"
)

// POST /v1/batch: many scheduling requests in one HTTP exchange. The body is
// {"items":[...]} where each item is a /v1/map or /v1/iterate request body
// plus an "endpoint" discriminator; the response carries one result per item
// in input order. Items flow through exactly the cache, coalescing, queue
// and tracing machinery singleton requests use, so an item's body is
// byte-identical to the corresponding singleton response body (minus the
// trailing newline — the envelope embeds compact JSON values).
//
// What batching buys is amortization: one HTTP request, one body read, one
// trace, one access-log record — and a structural splitter that hands each
// item's exact byte extent to the raw-alias cache index, so a batch of
// repeat items costs one map lookup per item with no JSON decoding at all.

const endpointBatch endpoint = "/v1/batch"

// BatchItem is one entry of a BatchRequest: a scheduling request plus the
// endpoint that should serve it.
type BatchItem struct {
	// Endpoint selects the per-item endpoint: "map" or "iterate".
	Endpoint string `json:"endpoint"`
	Request
}

// BatchRequest is the JSON body accepted by POST /v1/batch.
type BatchRequest struct {
	Items []BatchItem `json:"items"`
}

// BatchItemResult is one per-item outcome in a BatchResponse. Status and
// Body mirror the singleton response exactly: on success Body is the
// /v1/map or /v1/iterate response value, on failure the uniform
// {"error":{...}} envelope with the same closed code set. Cache reports how
// the bytes were obtained ("hit", "miss", "coalesced"; empty on errors) —
// the in-body equivalent of the X-Schedd-Cache header.
type BatchItemResult struct {
	Status int             `json:"status"`
	Cache  string          `json:"cache,omitempty"`
	Body   json.RawMessage `json:"body"`
}

// BatchResponse is the body returned by POST /v1/batch: Results[i] answers
// Items[i], always in input order.
type BatchResponse struct {
	Results []BatchItemResult `json:"results"`
}

// itemOutcome is the server-side per-item result slot; the response
// envelope is assembled from these by appendBatchEnvelope.
type itemOutcome struct {
	status int
	cache  string
	body   []byte // compact JSON, no trailing newline
}

// handleBatch serves POST /v1/batch between the front's gate and its
// epilogue — one arrival, one epilogue, whatever the item count: the
// conservation invariant counts batches, not items, while per-item cache
// traffic still lands in the hit/miss/coalesced counters. In between is
// the per-item fan-out: split the body into raw item extents, serve
// raw-alias repeats inline, and resolve the rest concurrently through the
// singleton path (cache, singleflight, bounded queue). The batch itself is
// always 200 once admitted; per-item failures are expressed in the
// envelope, so one bad item never poisons its neighbors.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request, a Arrival) {
	tr := a.tr
	sc := getScratch()
	defer putScratch(sc)
	sp := tr.Start("decode")
	body, ok := a.ReadBody(w, r, sc.buf, sp)
	sc.buf = body
	if !ok {
		return
	}
	// The trace identity is deterministic in the full batch content.
	tr.SetKeyBytes(body)
	// Whole-envelope fast path: an all-hit batch caches its assembled
	// envelope under the exact batch body, so a repeat of the same batch is
	// one map lookup — no split, no per-item lookups, no assembly. Only
	// all-hit envelopes are stored (their replay is what a full
	// re-resolution would produce), so statuses and bodies are identical
	// either way.
	if s.cache != nil {
		if env, ok := sc.getRaw(s.cache, rawAlias{head: rawHeadBatchEnv, body: body}); ok {
			sp.End()
			csp := tr.Start("cache_lookup")
			csp.SetCache("hit")
			csp.End()
			// Every item in the stored envelope was a cache hit; serving
			// the envelope is those same hits again.
			s.mHits.Add(int64(env.meta.items))
			s.mBatchItems.Add(int64(env.meta.items))
			s.writeBody(w, http.StatusOK, env.body, env.clen, "", tr)
			a.Done(http.StatusOK, "hit", env.meta.summary())
			return
		}
	}
	items, aerr := splitBatch(body)
	if aerr == nil {
		switch {
		case len(items) == 0:
			aerr = &apiError{
				status: http.StatusUnprocessableEntity,
				code:   CodeValidationFailed,
				msg:    "request has 1 invalid field(s)",
				fields: []FieldError{{Path: "items", Message: "batch has no items"}},
			}
		case len(items) > MaxBatchItems:
			aerr = &apiError{
				status: http.StatusRequestEntityTooLarge,
				code:   CodePayloadTooLarge,
				msg:    fmt.Sprintf("batch has %d items, admission cap is %d", len(items), MaxBatchItems),
			}
		}
	}
	if aerr != nil {
		sp.SetErr(aerr.code)
		sp.End()
		s.writeError(w, aerr, tr)
		a.Done(aerr.status, "", obs.RequestDone{Items: len(items)})
		return
	}
	sp.End()
	s.mBatchItems.Add(int64(len(items)))

	// batch_split: per-item raw-alias lookups, decode/admit of the misses,
	// and the launch of their concurrent resolution. Raw repeats never leave
	// this loop — one map lookup, zero parsing.
	results := make([]itemOutcome, len(items))
	ssp := tr.Start("batch_split")
	var wg sync.WaitGroup
	for i, item := range items {
		raw := rawAlias{head: rawHeadBatchItem, body: item}
		if s.cache != nil {
			if c, ok := sc.getRaw(s.cache, raw); ok {
				csp := tr.Start("cache_lookup")
				csp.SetCache("hit")
				csp.End()
				s.mHits.Inc()
				results[i] = itemOutcome{status: http.StatusOK, cache: "hit", body: trimNewline(c.body)}
				continue
			}
		}
		p, aerr := parseBatchItem(item, guarded, sc)
		if aerr != nil {
			results[i] = itemOutcome{status: aerr.status, body: errorEnvelope(aerr)}
			continue
		}
		wg.Add(1)
		go func(slot *itemOutcome, p *parsedRequest, raw rawAlias) {
			defer wg.Done()
			// The singleton resolution path, verbatim: canonical cache
			// (a hit admits the item's bytes as a raw alias, copied once
			// from the request body, which outlives wg.Wait), coalescing
			// with concurrent identical requests (including singleton
			// ones), bounded queue. Trace methods are safe for concurrent
			// use, so items share the batch's span tree.
			body, state, aerr := s.resolve(r.Context(), p, raw, tr)
			if aerr != nil {
				*slot = itemOutcome{status: aerr.status, cache: state, body: errorEnvelope(aerr)}
				return
			}
			*slot = itemOutcome{status: http.StatusOK, cache: state, body: trimNewline(body)}
		}(&results[i], p, raw)
	}
	ssp.End()

	// batch_merge: wait for every in-flight item, then assemble the
	// envelope in input order in the pooled scratch.
	msp := tr.Start("batch_merge")
	wg.Wait()
	env := appendBatchEnvelope(sc.key[:0], results)
	sc.key = env
	msp.End()

	if s.cache != nil {
		allHit := true
		for i := range results {
			if results[i].cache != "hit" {
				allHit = false
				break
			}
		}
		envRaw := rawAlias{head: rawHeadBatchEnv, body: body}
		if allHit && envRaw.indexable() {
			// Store the assembled envelope for the whole-envelope fast
			// path. body still holds the request bytes (sc.buf is untouched
			// since the read); the canonical key is their copy.
			envKey := envRaw.key()
			s.cache.add(envKey, append([]byte(nil), env...), entryMeta{items: len(items)})
			s.cache.alias(envKey, envKey)
		}
	}

	s.writeBody(w, http.StatusOK, env, nil, "", tr)
	a.Done(http.StatusOK, "", obs.RequestDone{Items: len(items)})
}

// parseBatchItem decodes and admits one batch item — the item-level
// equivalent of the singleton decode+validate stages, producing the same
// error envelopes a singleton request would see.
func parseBatchItem(raw []byte, adm admission, sc *reqScratch) (*parsedRequest, *apiError) {
	d, aerr := decodeBody(raw, true, sc)
	if aerr != nil {
		return nil, aerr
	}
	var ep endpoint
	switch string(d.endpoint) {
	case "map":
		ep = endpointMap
	case "iterate":
		ep = endpointIterate
	default:
		return nil, &apiError{
			status: http.StatusUnprocessableEntity,
			code:   CodeValidationFailed,
			msg:    "request has 1 invalid field(s)",
			fields: []FieldError{{Path: "endpoint", Message: fmt.Sprintf("unknown endpoint %q (want map or iterate)", d.endpoint)}},
		}
	}
	return d.admit(ep, adm)
}

// decodeBatchItemSlow decodes a batch item with encoding/json.
func decodeBatchItemSlow(raw []byte) (BatchItem, *apiError) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var it BatchItem
	if err := dec.Decode(&it); err != nil {
		return BatchItem{}, badRequest("decoding batch item: %v", err)
	}
	if trailingData(raw, dec) {
		return BatchItem{}, badRequest("batch item has trailing data")
	}
	return it, nil
}

// trimNewline strips the canonical trailing newline from a singleton
// response body for embedding in the batch envelope.
func trimNewline(body []byte) []byte {
	if n := len(body); n > 0 && body[n-1] == '\n' {
		return body[:n-1]
	}
	return body
}

// appendBatchEnvelope assembles the BatchResponse wire form by hand in dst:
// the field order (status, cache, body) matches the struct tags, item
// bodies are embedded verbatim, and the whole envelope gets the canonical
// trailing newline. Hand assembly keeps the merge stage from re-encoding
// kilobytes of already-canonical JSON.
func appendBatchEnvelope(dst []byte, results []itemOutcome) []byte {
	dst = append(dst, `{"results":[`...)
	for i := range results {
		r := &results[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"status":`...)
		dst = strconv.AppendInt(dst, int64(r.status), 10)
		if r.cache != "" {
			// Values come from the closed hit/miss/coalesced set: no escaping.
			dst = append(dst, `,"cache":"`...)
			dst = append(dst, r.cache...)
			dst = append(dst, '"')
		}
		dst = append(dst, `,"body":`...)
		dst = append(dst, r.body...)
		dst = append(dst, '}')
	}
	dst = append(dst, ']', '}', '\n')
	return dst
}

// errorEnvelope renders the uniform error body (without the trailing
// newline) — the same bytes writeError produces, shared so batch items and
// singleton responses can never drift.
func errorEnvelope(aerr *apiError) []byte {
	code := aerr.code
	if code == "" { // defensive: every constructor sets one
		code = CodeInternal
	}
	body, _ := json.Marshal(ErrorResponse{Error: ErrorDetail{Code: code, Message: aerr.msg, Fields: aerr.fields}})
	return body
}

// splitBatch extracts each item's exact byte extent from an
// {"items":[...]} body. The structural scanner avoids materializing any
// item; bodies it cannot handle (escaped keys, unknown fields, malformed
// JSON) fall back to encoding/json for exact error reporting.
func splitBatch(body []byte) ([][]byte, *apiError) {
	if items, ok := splitBatchFast(body); ok {
		return items, nil
	}
	return splitBatchSlow(body)
}

// splitBatchFast is the structural scanner: a single pass that matches
// {"items":[v0,v1,...]} and records each value's extent. It returns ok
// false on anything else — including trailing data or extra keys — letting
// the slow path produce the canonical error.
func splitBatchFast(body []byte) ([][]byte, bool) {
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return nil, false
	}
	const key = `"items"`
	i = skipSpace(body, i+1)
	if i+len(key) > len(body) || string(body[i:i+len(key)]) != key {
		return nil, false
	}
	i = skipSpace(body, i+len(key))
	if i >= len(body) || body[i] != ':' {
		return nil, false
	}
	i = skipSpace(body, i+1)
	if i >= len(body) || body[i] != '[' {
		return nil, false
	}
	i = skipSpace(body, i+1)
	var items [][]byte
	if i < len(body) && body[i] == ']' {
		i++
	} else {
		for {
			end, ok := scanJSONValue(body, i)
			if !ok || end == i {
				return nil, false
			}
			items = append(items, body[i:end])
			i = skipSpace(body, end)
			if i >= len(body) {
				return nil, false
			}
			if body[i] == ',' {
				i = skipSpace(body, i+1)
				continue
			}
			if body[i] == ']' {
				i++
				break
			}
			return nil, false
		}
	}
	i = skipSpace(body, i)
	if i >= len(body) || body[i] != '}' {
		return nil, false
	}
	return items, skipSpace(body, i+1) == len(body)
}

// splitBatchSlow is the encoding/json fallback: same acceptance rules as
// the singleton decoder (unknown fields rejected, trailing data rejected),
// with json.RawMessage extents standing in for the scanner's slices.
func splitBatchSlow(body []byte) ([][]byte, *apiError) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var env struct {
		Items []json.RawMessage `json:"items"`
	}
	if err := dec.Decode(&env); err != nil {
		return nil, badRequest("decoding batch request: %v", err)
	}
	if trailingData(body, dec) {
		return nil, badRequest("request body has trailing data")
	}
	items := make([][]byte, len(env.Items))
	for i, m := range env.Items {
		items[i] = m
	}
	return items, nil
}

// skipSpace advances past JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanJSONValue returns the end offset (exclusive) of the JSON value
// starting at i: depth-counted for composites, string- and escape-aware,
// delimiter-terminated for primitives. It validates only structure — the
// value is decoded for real by parseBatchItem. On failure (input ends inside
// a string or composite) the offset is len(b).
func scanJSONValue(b []byte, i int) (int, bool) {
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			return skipString(b, i+1)
		case '{', '[':
			return skipComposite(b, i+1)
		case '}', ']', ',', ' ', '\t', '\n', '\r':
			return i, true // primitive terminated by a delimiter
		}
	}
	return i, true
}

// skipComposite returns the offset just past the bracket that closes the
// composite whose first content byte is at i. Only "{}[] matter here, so
// runs of other bytes — digits, commas, whitespace, key-free stretches of
// a matrix — are skipped eight at a time.
func skipComposite(b []byte, i int) (int, bool) {
	depth := 1
	for {
		for i+8 <= len(b) && !hasStructural(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		for i < len(b) && !jsonStructural[b[i]] {
			i++
		}
		if i >= len(b) {
			return len(b), false
		}
		switch b[i] {
		case '"':
			var ok bool
			if i, ok = skipString(b, i+1); !ok {
				return i, false
			}
			continue
		case '{', '[':
			depth++
		default: // '}' or ']'
			if depth--; depth == 0 {
				return i + 1, true
			}
		}
		i++
	}
}

// skipString returns the offset just past the closing quote of the string
// whose first content byte is at i. Only '"' and '\\' matter inside a
// string; a backslash escapes whatever byte follows it.
func skipString(b []byte, i int) (int, bool) {
	for {
		for i+8 <= len(b) && !hasQuoteOrEscape(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		for i < len(b) && b[i] != '"' && b[i] != '\\' {
			i++
		}
		if i >= len(b) {
			return len(b), false
		}
		if b[i] == '"' {
			return i + 1, true
		}
		i += 2
	}
}

// jsonStructural marks the bytes skipComposite stops at.
var jsonStructural = [256]bool{'"': true, '{': true, '}': true, '[': true, ']': true}

// Word tests over eight bytes at once. hasZeroByte is exact as a boolean:
// it is nonzero iff some byte of v is zero.
const (
	wordOnes = 0x0101010101010101
	wordHigh = 0x8080808080808080
)

func hasZeroByte(v uint64) uint64 { return (v - wordOnes) & ^v & wordHigh }

// hasStructural reports whether w may hold one of "{}[]. Setting bit 5
// folds '[' onto '{' and ']' onto '}'; the only other byte it folds onto a
// target is the control byte 0x02 (onto '"'), a harmless false positive the
// byte loop rejects.
func hasStructural(w uint64) bool {
	y := w | 0x2020202020202020
	return hasZeroByte(y^('"'*wordOnes))|hasZeroByte(y^('{'*wordOnes))|hasZeroByte(y^('}'*wordOnes)) != 0
}

// hasQuoteOrEscape reports whether w holds a '"' or '\\' byte.
func hasQuoteOrEscape(w uint64) bool {
	return hasZeroByte(w^('"'*wordOnes))|hasZeroByte(w^('\\'*wordOnes)) != 0
}

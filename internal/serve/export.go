package serve

// Exports for internal/cluster: the gateway must route by the exact
// canonical request key a backend would compute, split batch bodies into
// the exact per-item extents a backend would see, and re-assemble merged
// envelopes byte-identically to a single instance. Sharing the private
// machinery (the key writer, splitBatch, appendBatchEnvelope, errorEnvelope)
// through these thin wrappers is what makes the cluster-vs-singleton
// byte-identity invariant structural rather than coincidental.

// CanonicalKey computes the canonical cache/routing key for a singleton
// request body on the given endpoint path ("/v1/map" or "/v1/iterate").
// It runs the same decode and admission pipeline a backend would, with no
// admission caps (routing must not depend on gateway-local limits), and
// builds no instance. ok is false for unknown endpoints and bodies a
// backend would reject before keying (malformed JSON, invalid fields);
// such requests have no canonical key and the caller routes them by raw
// bytes instead.
func CanonicalKey(ep string, body []byte) (key string, ok bool) {
	var e endpoint
	switch ep {
	case string(endpointMap):
		e = endpointMap
	case string(endpointIterate):
		e = endpointIterate
	default:
		return "", false
	}
	sc := getScratch()
	defer putScratch(sc)
	d, aerr := decodeBody(body, false, sc)
	if aerr != nil {
		return "", false
	}
	p, aerr := d.admit(e, limits{})
	if aerr != nil {
		return "", false
	}
	return p.key, true
}

// BatchItemKey computes the canonical key for one raw batch item (an
// element of a /v1/batch "items" array, endpoint discriminator included).
// ok is false when the item would fail a backend's item-level decode or
// validation; the caller routes such items by raw bytes.
func BatchItemKey(item []byte) (key string, ok bool) {
	sc := getScratch()
	defer putScratch(sc)
	p, aerr := parseBatchItem(item, limits{}, sc)
	if aerr != nil {
		return "", false
	}
	return p.key, true
}

// SplitBatchItems splits a /v1/batch body into its per-item raw extents,
// exactly as a backend's splitter would. ok is false when the body is not
// a well-formed batch envelope; the caller forwards such bodies whole so a
// backend produces the canonical error response.
func SplitBatchItems(body []byte) (items [][]byte, ok bool) {
	items, aerr := splitBatch(body)
	return items, aerr == nil
}

// AppendBatchResults appends the canonical batch envelope for the given
// per-item results to dst and returns it — the same hand-assembled wire
// form (field order, compact bodies, trailing newline) a backend's merge
// stage produces, so a gateway-merged response is byte-identical to a
// single instance's. Each Body must be compact JSON without a trailing
// newline.
func AppendBatchResults(dst []byte, results []BatchItemResult) []byte {
	outs := make([]itemOutcome, len(results))
	for i, r := range results {
		outs[i] = itemOutcome{status: r.Status, cache: r.Cache, body: r.Body}
	}
	return appendBatchEnvelope(dst, outs)
}

// ErrorEnvelope renders the uniform {"error":{...}} body (without trailing
// newline) for a documented code — the same bytes writeError produces, so
// gateway-originated errors use the identical wire form.
func ErrorEnvelope(code, msg string) []byte {
	return errorEnvelope(&apiError{code: code, msg: msg})
}

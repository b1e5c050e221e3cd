package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"

	"repro/internal/core"
	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// Request is the JSON body accepted by POST /v1/map and POST /v1/iterate.
// Every field that influences the produced mapping is explicit — in
// particular the seed — so identical requests always produce byte-identical
// response bodies, whether computed or served from the cache.
type Request struct {
	// ETC is the matrix, one row per task, one column per machine. Entries
	// must be positive and finite (the etc.Matrix invariant).
	ETC [][]float64 `json:"etc"`
	// Ready gives initial machine ready times; omitted means all zero.
	Ready []float64 `json:"ready,omitempty"`
	// Heuristic names the mapping heuristic, as in heuristics.Names().
	Heuristic string `json:"heuristic"`
	// Ties selects tie-breaking: "det" (default, lowest index) or "random"
	// (seeded stream derived from Seed).
	Ties string `json:"ties,omitempty"`
	// Seed drives random tie-breaking and stochastic heuristics.
	Seed uint64 `json:"seed,omitempty"`
	// Seeded wraps the heuristic with the paper's never-worsen seeding.
	Seeded bool `json:"seeded,omitempty"`
	// TimeoutMS lowers the server's per-request deadline for this request.
	// A deadline can cancel a request (504) but never alters the content of
	// a produced response, so it is deliberately not part of the cache key.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MapResponse is the body returned by POST /v1/map: one heuristic run.
type MapResponse struct {
	Heuristic string `json:"heuristic"`
	Ties      string `json:"ties"`
	Seed      uint64 `json:"seed"`
	Tasks     int    `json:"tasks"`
	Machines  int    `json:"machines"`
	// Assign[t] is task t's machine; Completion[m] is machine m's
	// completion time under the mapping.
	Assign     []int     `json:"assign"`
	Completion []float64 `json:"completion"`
	Makespan   float64   `json:"makespan"`
}

// IterationResult is one iteration of the technique in an IterateResponse,
// mirroring core.Iteration in global coordinates.
type IterationResult struct {
	Index           int       `json:"index"`
	Tasks           []int     `json:"tasks"`
	Machines        []int     `json:"machines"`
	Assign          []int     `json:"assign"`
	Completion      []float64 `json:"completion"`
	Makespan        float64   `json:"makespan"`
	MakespanMachine int       `json:"makespan_machine"`
	// Frozen is the machine removed after this iteration, -1 for the last
	// iteration (the survivor is never frozen).
	Frozen int `json:"frozen"`
}

// IterateResponse is the body returned by POST /v1/iterate: a full run of
// the paper's iterative technique.
type IterateResponse struct {
	Heuristic         string            `json:"heuristic"`
	Ties              string            `json:"ties"`
	Seed              uint64            `json:"seed"`
	Tasks             int               `json:"tasks"`
	Machines          int               `json:"machines"`
	Iterations        []IterationResult `json:"iterations"`
	FinalAssign       []int             `json:"final_assign"`
	FinalCompletion   []float64         `json:"final_completion"`
	OriginalMakespan  float64           `json:"original_makespan"`
	FinalMakespan     float64           `json:"final_makespan"`
	MakespanIncreased bool              `json:"makespan_increased"`
	// Outcomes[m] classifies machine m against the original mapping:
	// "improved", "unchanged" or "worsened".
	Outcomes []string `json:"outcomes"`
}

// ErrorResponse is the body of every non-2xx response: a uniform envelope
// {"error":{"code":...,"message":...}} so clients and the chaos harness can
// classify failures without parsing free-form text.
type ErrorResponse struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the envelope payload. Code is one of the Code* constants —
// a stable machine-readable discriminator — and Message is human-facing.
// Validation failures (422) additionally carry field-level messages.
type ErrorDetail struct {
	Code    string       `json:"code"`
	Message string       `json:"message"`
	Fields  []FieldError `json:"fields,omitempty"`
}

// FieldError locates one validation failure inside the request body, e.g.
// {"path":"etc[2][0]","message":"-1 is not a positive finite value"}.
type FieldError struct {
	Path    string `json:"path"`
	Message string `json:"message"`
}

// The documented error codes, one per non-2xx path. Every error the service
// emits uses exactly one of these; the chaos harness treats any other code
// as an invariant violation.
const (
	CodeBadRequest       = "bad_request"        // 400: malformed JSON, unknown fields, unreadable body
	CodeMethodNotAllowed = "method_not_allowed" // 405: non-POST on scheduling, non-GET on introspection
	CodePayloadTooLarge  = "payload_too_large"  // 413: body over MaxBodyBytes, or admission guard refusal
	CodeValidationFailed = "validation_failed"  // 422: well-formed JSON, semantically invalid fields
	CodeOverloaded       = "overloaded"         // 429: bounded queue full, request shed
	CodeInternal         = "internal"           // 500: unexpected engine error
	CodePanic            = "panic"              // 500: request-path panic, recovered
	CodeDraining         = "draining"           // 503: server draining, request refused
	CodeDeadlineExceeded = "deadline_exceeded"  // 504: request deadline expired
	// CodeUpstreamUnavailable is emitted by the cluster gateway (cmd/schedgw)
	// when every ranked backend for a key is unreachable; single instances
	// never produce it.
	CodeUpstreamUnavailable = "upstream_unavailable" // 503: gateway: no backend reachable
)

// apiError pairs an HTTP status with a stable error code and client-facing
// message, plus the response headers some statuses require (Allow on 405,
// Retry-After on retryable rejections).
type apiError struct {
	status int
	code   string
	msg    string
	// fields carries field-level detail for validation failures.
	fields []FieldError
	// allow, when non-empty, becomes the Allow header (required on 405).
	allow string
	// retryAfterSec, when positive, becomes the Retry-After header, telling
	// resilient clients how long to back off before retrying.
	retryAfterSec int
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: CodeBadRequest, msg: fmt.Sprintf(format, args...)}
}

func internalError(format string, args ...any) *apiError {
	return &apiError{status: http.StatusInternalServerError, code: CodeInternal, msg: fmt.Sprintf(format, args...)}
}

// endpoint distinguishes the two scheduling endpoints; it is part of the
// cache key (a /v1/map and a /v1/iterate body are never interchangeable).
type endpoint string

const (
	endpointMap     endpoint = "/v1/map"
	endpointIterate endpoint = "/v1/iterate"
)

// parsedRequest is an admitted scheduling request ready for a worker. It
// holds the canonical key and the fields outside the matrix, not the
// matrix itself: the key encodes every scheduling input exactly, so a
// worker decodes the instance from it (instance) only when it computes,
// and a cache or disk hit never builds one.
type parsedRequest struct {
	endpoint endpoint
	key      string
	// heuristic and ties are views of the key's header; ties is
	// normalized ("det" when the request sent none).
	heuristic string
	ties      string
	seed      uint64
	seeded    bool
	timeoutMS int64
	tasks     int
	machines  int
}

// limits are the admission guards a Server threads into parsing: hard caps
// refused up front (413) before any per-cell work or allocation is sunk into
// a request nobody should have sent. A zero field disables that guard.
type limits struct {
	maxCells    int   // cap on total ETC entries (tasks × machines)
	maxEstBytes int64 // cap on the response + working-memory estimate
}

// estimateBytes is the per-request memory estimate the admission guard
// checks: the instance copy (~24 B per cell including slice headers) plus
// the response. /v1/iterate responses repeat per-iteration assign/completion
// arrays up to machines times (~48 B per retained entry); /v1/map carries
// one assignment and one completion row.
func estimateBytes(ep endpoint, cells, tasks, machines int64) int64 {
	est := 24 * cells
	if ep == endpointIterate {
		est += 48 * machines * (tasks + machines)
	} else {
		est += 24 * (tasks + machines)
	}
	return est
}

// maxFieldErrors caps the field-level detail on a 422: enough to fix a
// hand-written request, bounded so a hostile body cannot make the error
// response arbitrarily large. The message always carries the full count.
const maxFieldErrors = 16

// fieldErrors collects field-level validation failures: the first
// maxFieldErrors in full, and the uncapped count.
type fieldErrors struct {
	fields []FieldError
	total  int
}

func (e *fieldErrors) add(path, format string, args ...any) {
	e.total++
	if len(e.fields) < maxFieldErrors {
		e.fields = append(e.fields, FieldError{Path: path, Message: fmt.Sprintf(format, args...)})
	}
}

// err is the one 422 carrying every collected failure; nil when there are
// none.
func (e *fieldErrors) err() *apiError {
	if e.total == 0 {
		return nil
	}
	return &apiError{
		status: http.StatusUnprocessableEntity,
		code:   CodeValidationFailed,
		msg:    fmt.Sprintf("request has %d invalid field(s)", e.total),
		fields: e.fields,
	}
}

// validateRequest walks every field of an encoding/json request. Its
// checks are those decodeFast makes on the matrix inline and the
// constructors a worker runs on the key make again — etc.Adopt,
// sched.NewInstance and heuristics.ByName — so that by the time those
// run, their error (and panic) paths are unreachable.
func validateRequest(rq Request) *fieldErrors {
	var e fieldErrors
	cols := e.matrix(rq.ETC)
	e.params(cols, rq.Ready, rq.Ready != nil, rq.Heuristic, rq.Ties, rq.Seed, rq.TimeoutMS)
	return &e
}

// matrix checks the ETC matrix and returns the machine count the other
// fields are checked against (0 when the matrix has no first row).
func (e *fieldErrors) matrix(m [][]float64) (cols int) {
	switch {
	case len(m) == 0:
		e.add("etc", "matrix has no tasks")
	case len(m[0]) == 0:
		e.add("etc[0]", "matrix has no machines")
	default:
		cols = len(m[0])
		for t, row := range m {
			if len(row) != cols {
				e.add(fmt.Sprintf("etc[%d]", t), "row has %d entries, want %d", len(row), cols)
				continue
			}
			for c, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					e.add(fmt.Sprintf("etc[%d][%d]", t, c), "%g is not a positive finite value", v)
				}
			}
		}
	}
	return cols
}

// params checks every field outside the matrix, given its machine count
// cols: the ready times (hasReady: "ready" was sent), heuristic and seed,
// tie policy and timeout. Both decoders' requests go through it.
func (e *fieldErrors) params(cols int, ready []float64, hasReady bool, heuristic, ties string, seed uint64, timeoutMS int64) {
	if hasReady && cols > 0 && len(ready) != cols {
		e.add("ready", "%d ready times for %d machines", len(ready), cols)
	}
	for i, v := range ready {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			e.add(fmt.Sprintf("ready[%d]", i), "%g is not a finite non-negative value", v)
		}
	}
	if _, err := heuristics.ByName(heuristic, seed); err != nil {
		e.add("heuristic", "%v", err)
	}
	if ties == "" {
		ties = "det"
	}
	if ties != "det" && ties != "random" {
		e.add("ties", "unknown policy %q (want det or random)", ties)
	}
	if timeoutMS < 0 {
		e.add("timeout_ms", "%d is negative", timeoutMS)
	}
}

// decodedRequest is a request body after the handler's "decode" stage.
// A body in decodeFast's subset is held flat (its cells in the request
// scratch); any other body that encoding/json accepts is held as its
// encoding/json value.
type decodedRequest struct {
	endpoint []byte // a batch item's "endpoint" field
	fast     bool
	flat     flatRequest // when fast
	slow     Request     // when !fast
}

// decodeBody decodes a request body (a batch item when item is set).
// Unknown fields are rejected so a typo'd parameter can never silently
// change the cache key. It is the handler's "decode" stage; malformed JSON
// is 400. Canonical bodies take the one-pass decoder; the rest go through
// encoding/json, which owns every error message. The result aliases body
// and sc until it is admitted.
func decodeBody(body []byte, item bool, sc *reqScratch) (decodedRequest, *apiError) {
	if r, ok := decodeFast(body, item, sc); ok {
		return decodedRequest{endpoint: r.endpoint, fast: true, flat: r}, nil
	}
	it, aerr := decodeSlow(body, item)
	if aerr != nil {
		return decodedRequest{}, aerr
	}
	return decodedRequest{endpoint: []byte(it.Endpoint), slow: it.Request}, nil
}

// decodeSlow is decodeBody's encoding/json path.
func decodeSlow(body []byte, item bool) (BatchItem, *apiError) {
	if item {
		return decodeBatchItemSlow(body)
	}
	rq, aerr := decodeRequestSlow(body)
	return BatchItem{Request: rq}, aerr
}

// decodeRequestSlow decodes a singleton body with encoding/json.
func decodeRequestSlow(body []byte) (Request, *apiError) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var rq Request
	if err := dec.Decode(&rq); err != nil {
		return Request{}, badRequest("decoding request: %v", err)
	}
	if trailingData(body, dec) {
		return Request{}, badRequest("request body has trailing data")
	}
	return rq, nil
}

// trailingData reports whether anything but whitespace follows the value
// dec just decoded from body. (Decoder.More is not this test: it reports
// false when the next byte is ']' or '}'.)
func trailingData(body []byte, dec *json.Decoder) bool {
	return skipSpace(body, int(dec.InputOffset())) != len(body)
}

// admit runs the admission guards and semantic validation on a decoded
// request and writes its canonical key — the handler's "validate" stage.
// Failures are tiered: admission-guard refusals are 413, and semantically
// invalid fields are one 422 carrying every field-level message (up to
// maxFieldErrors). A flat request's matrix was validated as it was
// decoded, so only its other fields can fail; they are checked on the
// key's views of its strings, so a valid request converts none.
func (d *decodedRequest) admit(ep endpoint, lim limits) (*parsedRequest, *apiError) {
	if !d.fast {
		return admitRequest(ep, d.slow, lim)
	}
	f := &d.flat
	if aerr := checkAdmission(ep, int64(len(f.cells)), int64(f.tasks), int64(f.machines), lim); aerr != nil {
		return nil, aerr
	}
	p := f.parsed(ep)
	var e fieldErrors
	e.params(f.machines, f.ready, f.hasReady, p.heuristic, p.ties, p.seed, p.timeoutMS)
	if aerr := e.err(); aerr != nil {
		return nil, aerr
	}
	return p, nil
}

// checkAdmission runs the admission guards. They run before the per-cell
// validation walk: the counts are cheap, and an over-cap request must cost
// the server as little as possible.
func checkAdmission(ep endpoint, cells, tasks, machines int64, lim limits) *apiError {
	if lim.maxCells > 0 && cells > int64(lim.maxCells) {
		return &apiError{
			status: http.StatusRequestEntityTooLarge,
			code:   CodePayloadTooLarge,
			msg:    fmt.Sprintf("matrix has %d cells, admission cap is %d", cells, lim.maxCells),
		}
	}
	if est := estimateBytes(ep, cells, tasks, machines); lim.maxEstBytes > 0 && est > lim.maxEstBytes {
		return &apiError{
			status: http.StatusRequestEntityTooLarge,
			code:   CodePayloadTooLarge,
			msg:    fmt.Sprintf("estimated memory %d bytes for this request exceeds the admission cap of %d", est, lim.maxEstBytes),
		}
	}
	return nil
}

// admitRequest admits an encoding/json request: the admission guards,
// validateRequest, and the same key writer the fast path uses, over the
// matrix flattened row-major.
func admitRequest(ep endpoint, rq Request, lim limits) (*parsedRequest, *apiError) {
	var cells int64
	for _, row := range rq.ETC {
		cells += int64(len(row))
	}
	tasks, machines := int64(len(rq.ETC)), int64(0)
	if len(rq.ETC) > 0 {
		machines = int64(len(rq.ETC[0]))
	}
	if aerr := checkAdmission(ep, cells, tasks, machines, lim); aerr != nil {
		return nil, aerr
	}
	if aerr := validateRequest(rq).err(); aerr != nil {
		return nil, aerr
	}
	flat := make([]float64, 0, cells)
	for _, row := range rq.ETC {
		flat = append(flat, row...)
	}
	f := flatRequest{
		heuristic: []byte(rq.Heuristic),
		ties:      []byte(rq.Ties),
		seed:      rq.Seed,
		seeded:    rq.Seeded,
		timeoutMS: rq.TimeoutMS,
		tasks:     int(tasks),
		machines:  int(machines),
		cells:     flat,
		ready:     rq.Ready,
		hasReady:  rq.Ready != nil,
	}
	return f.parsed(ep), nil
}

// parsed writes the canonical key of a valid flat request and returns the
// admitted request around it. The key is every scheduling input in exact
// binary form, in this order: the endpoint, heuristic and (normalized) tie
// policy, each followed by a zero byte; a seeded flag byte; then as
// little-endian uint64s the seed, tasks, machines, every cell's float64
// bits row-major, and one ready time per machine (zeros when none were
// sent, so nil and explicit all-zero requests share a key). Exactness
// (rather than a digest) is deliberate — a key collision would serve one
// request another request's bytes, violating the determinism guarantee —
// and so is the fixed layout: the disk tier stores its records under these
// bytes (testdata/canonical_keys.golden pins them). TimeoutMS is excluded:
// it can cancel a request but never change a produced response. The key
// is written once, into a buffer of its exact size that becomes the string
// without a copy.
func (f *flatRequest) parsed(ep endpoint) *parsedRequest {
	ties := f.ties
	if len(ties) == 0 {
		ties = tiesDet
	}
	var b strings.Builder
	b.Grow(len(ep) + len(f.heuristic) + len(ties) + 4 + 8*(3+len(f.cells)+f.machines))
	b.WriteString(string(ep))
	b.WriteByte(0)
	b.Write(f.heuristic)
	b.WriteByte(0)
	b.Write(ties)
	b.WriteByte(0)
	if f.seeded {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], f.seed)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(f.tasks))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(f.machines))
	b.Write(hdr[:])
	writeFloatBits(&b, f.cells)
	if f.hasReady {
		writeFloatBits(&b, f.ready)
	} else {
		var zero [8]byte
		for range f.machines {
			b.Write(zero[:])
		}
	}
	key := b.String()
	h := len(ep) + 1
	t := h + len(f.heuristic) + 1
	return &parsedRequest{
		endpoint:  ep,
		key:       key,
		heuristic: key[h : t-1],
		ties:      key[t : t+len(ties)],
		seed:      f.seed,
		seeded:    f.seeded,
		timeoutMS: f.timeoutMS,
		tasks:     f.tasks,
		machines:  f.machines,
	}
}

var tiesDet = []byte("det")

// writeFloatBits writes each value's float64 bits, little-endian.
func writeFloatBits(b *strings.Builder, vals []float64) {
	var u [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(u[:], math.Float64bits(v))
		b.Write(u[:])
	}
}

// instance decodes the request's scheduling instance from its key: the
// cells and ready times are the key's last 8×(tasks×machines + machines)
// bytes. One allocation holds both; the matrix adopts its part without a
// copy.
func (p *parsedRequest) instance() (*sched.Instance, error) {
	n := p.tasks * p.machines
	raw := p.key[len(p.key)-8*(n+p.machines):]
	vals := make([]float64, n+p.machines)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64([]byte(raw[8*i : 8*i+8])))
	}
	m, err := etc.Adopt(p.tasks, p.machines, vals[:n:n])
	if err != nil {
		return nil, err
	}
	return sched.NewInstance(m, vals[n:])
}

// policy returns the tie-breaking policy function for the request. Built
// fresh per compute: random policies are stateful streams.
func (p *parsedRequest) policy() core.PolicyFunc {
	if p.ties == "random" {
		return core.FixedPolicy(tiebreak.NewRandom(rng.New(p.seed)))
	}
	return core.Deterministic()
}

// compute runs the request and returns the marshaled response body. It is
// fully deterministic in the request: no wall-clock, no shared state.
func (p *parsedRequest) compute() ([]byte, *apiError) {
	v, aerr := p.run()
	if aerr != nil {
		return nil, aerr
	}
	return marshalResponse(v)
}

// run executes the request's heuristic or iterative run and returns the
// unmarshaled response value — the worker's "compute" stage, separated from
// "marshal" so traces can attribute their costs independently.
func (p *parsedRequest) run() (any, *apiError) {
	h, err := heuristics.ByName(p.heuristic, p.seed)
	if err != nil {
		return nil, badRequest("%v", err) // unreachable: validated at parse
	}
	if p.seeded {
		h = heuristics.Seeded{Inner: h}
	}
	in, err := p.instance()
	if err != nil {
		return nil, internalError("decoding the instance from its key: %v", err) // unreachable: validated at parse
	}
	switch p.endpoint {
	case endpointMap:
		mp, err := h.Map(in, p.policy()(0))
		if err != nil {
			return nil, internalError("%v", err)
		}
		s, err := sched.Evaluate(in, mp)
		if err != nil {
			return nil, internalError("%v", err)
		}
		return MapResponse{
			Heuristic:  p.heuristic,
			Ties:       p.ties,
			Seed:       p.seed,
			Tasks:      p.tasks,
			Machines:   p.machines,
			Assign:     s.Mapping.Assign,
			Completion: s.Completion,
			Makespan:   s.Makespan(),
		}, nil
	case endpointIterate:
		tr, err := core.Iterate(in, h, p.policy())
		if err != nil {
			return nil, internalError("%v", err)
		}
		resp := IterateResponse{
			Heuristic:         p.heuristic,
			Ties:              p.ties,
			Seed:              p.seed,
			Tasks:             p.tasks,
			Machines:          p.machines,
			FinalAssign:       tr.FinalAssign,
			FinalCompletion:   tr.FinalCompletion,
			OriginalMakespan:  tr.OriginalMakespan(),
			FinalMakespan:     tr.FinalMakespan(),
			MakespanIncreased: tr.MakespanIncreased(),
		}
		for i, it := range tr.Iterations {
			ir := IterationResult{
				Index:           it.Index,
				Tasks:           it.Tasks,
				Machines:        it.Machines,
				Assign:          it.Assign,
				Completion:      it.Completion,
				Makespan:        it.Makespan,
				MakespanMachine: it.MakespanMachine,
				Frozen:          it.Frozen,
			}
			if i == len(tr.Iterations)-1 {
				ir.Frozen = -1
			}
			resp.Iterations = append(resp.Iterations, ir)
		}
		for _, o := range tr.MachineOutcomes() {
			resp.Outcomes = append(resp.Outcomes, o.String())
		}
		return resp, nil
	default:
		return nil, internalError("unknown endpoint %q", p.endpoint)
	}
}

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

// parsedRequest is a validated scheduling request ready for a worker.
type parsedRequest struct {
	endpoint endpoint
	req      Request
	in       *sched.Instance
	ties     string
	key      string
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

// validateRequest walks every field of a decoded request and collects
// field-level errors (capped at maxFieldErrors; total is the uncapped
// count). It mirrors — and must stay in sync with — the constructors it
// fronts: etc.New, sched.NewInstance and heuristics.ByName, so that by the
// time those run, their error (and panic) paths are unreachable.
func validateRequest(rq Request) (ties string, fields []FieldError, total int) {
	add := func(path, format string, args ...any) {
		total++
		if len(fields) < maxFieldErrors {
			fields = append(fields, FieldError{Path: path, Message: fmt.Sprintf(format, args...)})
		}
	}
	cols := 0
	switch {
	case len(rq.ETC) == 0:
		add("etc", "matrix has no tasks")
	case len(rq.ETC[0]) == 0:
		add("etc[0]", "matrix has no machines")
	default:
		cols = len(rq.ETC[0])
		for t, row := range rq.ETC {
			if len(row) != cols {
				add(fmt.Sprintf("etc[%d]", t), "row has %d entries, want %d", len(row), cols)
				continue
			}
			for m, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					add(fmt.Sprintf("etc[%d][%d]", t, m), "%g is not a positive finite value", v)
				}
			}
		}
	}
	if rq.Ready != nil && cols > 0 && len(rq.Ready) != cols {
		add("ready", "%d ready times for %d machines", len(rq.Ready), cols)
	}
	for i, v := range rq.Ready {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			add(fmt.Sprintf("ready[%d]", i), "%g is not a finite non-negative value", v)
		}
	}
	if _, err := heuristics.ByName(rq.Heuristic, rq.Seed); err != nil {
		add("heuristic", "%v", err)
	}
	ties = rq.Ties
	if ties == "" {
		ties = "det"
	}
	if ties != "det" && ties != "random" {
		add("ties", "unknown policy %q (want det or random)", ties)
	}
	if rq.TimeoutMS < 0 {
		add("timeout_ms", "%d is negative", rq.TimeoutMS)
	}
	return ties, fields, total
}

// decodeRequest decodes a request body. Unknown fields are rejected so a
// typo'd parameter can never silently change the cache key. It is the
// handler's "decode" stage; malformed JSON is 400. Canonical bodies take
// the one-pass decoder; the rest go through encoding/json, which owns every
// error message.
func decodeRequest(body []byte) (Request, *apiError) {
	if it, ok := decodeFast(body, false); ok {
		return it.Request, nil
	}
	return decodeRequestSlow(body)
}

// decodeRequestSlow is decodeRequest's encoding/json path.
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

// admitRequest runs the admission guards and semantic validation on a
// decoded request — the handler's "validate" stage. Failures are tiered:
// admission-guard refusals are 413, and semantically invalid fields are one
// 422 carrying every field-level message (up to maxFieldErrors).
func admitRequest(ep endpoint, rq Request, lim limits) (*parsedRequest, *apiError) {
	// Admission guards run before the per-cell walk: counting rows is cheap,
	// and an over-cap request must cost the server as little as possible.
	var cells int64
	for _, row := range rq.ETC {
		cells += int64(len(row))
	}
	if lim.maxCells > 0 && cells > int64(lim.maxCells) {
		return nil, &apiError{
			status: http.StatusRequestEntityTooLarge,
			code:   CodePayloadTooLarge,
			msg:    fmt.Sprintf("matrix has %d cells, admission cap is %d", cells, lim.maxCells),
		}
	}
	tasks, machines := int64(len(rq.ETC)), int64(0)
	if len(rq.ETC) > 0 {
		machines = int64(len(rq.ETC[0]))
	}
	if est := estimateBytes(ep, cells, tasks, machines); lim.maxEstBytes > 0 && est > lim.maxEstBytes {
		return nil, &apiError{
			status: http.StatusRequestEntityTooLarge,
			code:   CodePayloadTooLarge,
			msg:    fmt.Sprintf("estimated memory %d bytes for this request exceeds the admission cap of %d", est, lim.maxEstBytes),
		}
	}
	ties, fields, total := validateRequest(rq)
	if total > 0 {
		return nil, &apiError{
			status: http.StatusUnprocessableEntity,
			code:   CodeValidationFailed,
			msg:    fmt.Sprintf("request has %d invalid field(s)", total),
			fields: fields,
		}
	}
	// validateRequest proved these constructors cannot fail; a residual error
	// here is a server bug, not a client one.
	m, err := etc.New(rq.ETC)
	if err != nil {
		return nil, internalError("constructing matrix after validation: %v", err)
	}
	in, err := sched.NewInstance(m, rq.Ready)
	if err != nil {
		return nil, internalError("constructing instance after validation: %v", err)
	}
	p := &parsedRequest{endpoint: ep, req: rq, in: in, ties: ties}
	p.key = cacheKey(ep, rq, ties, in)
	return p, nil
}

// cacheKey builds the exact cache key: every scheduling input in canonical
// binary form. Exactness (rather than a digest) is deliberate — a key
// collision would serve one request another request's bytes, violating the
// determinism guarantee. TimeoutMS is excluded: it can cancel a request but
// never change a produced response. The key is written once, into a buffer
// of its exact size that becomes the string without a copy.
func cacheKey(ep endpoint, rq Request, ties string, in *sched.Instance) string {
	m := in.ETC()
	var b strings.Builder
	b.Grow(len(ep) + len(rq.Heuristic) + len(ties) + 4 + 8*(3+m.Tasks()*m.Machines()+in.Machines()))
	b.WriteString(string(ep))
	b.WriteByte(0)
	b.WriteString(rq.Heuristic)
	b.WriteByte(0)
	b.WriteString(ties)
	b.WriteByte(0)
	if rq.Seeded {
		b.WriteByte(1)
	} else {
		b.WriteByte(0)
	}
	var u [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(u[:], x)
		b.Write(u[:])
	}
	put(rq.Seed)
	put(uint64(m.Tasks()))
	put(uint64(m.Machines()))
	for t := 0; t < m.Tasks(); t++ {
		for j := 0; j < m.Machines(); j++ {
			put(math.Float64bits(m.At(t, j)))
		}
	}
	// Ready times come from the instance, so nil and explicit all-zero
	// requests normalize to the same key.
	for j := 0; j < in.Machines(); j++ {
		put(math.Float64bits(in.Ready(j)))
	}
	return b.String()
}

// policy returns the tie-breaking policy function for the request. Built
// fresh per compute: random policies are stateful streams.
func (p *parsedRequest) policy() core.PolicyFunc {
	if p.ties == "random" {
		return core.FixedPolicy(tiebreak.NewRandom(rng.New(p.req.Seed)))
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
	h, err := heuristics.ByName(p.req.Heuristic, p.req.Seed)
	if err != nil {
		return nil, badRequest("%v", err) // unreachable: validated at parse
	}
	if p.req.Seeded {
		h = heuristics.Seeded{Inner: h}
	}
	switch p.endpoint {
	case endpointMap:
		mp, err := h.Map(p.in, p.policy()(0))
		if err != nil {
			return nil, internalError("%v", err)
		}
		s, err := sched.Evaluate(p.in, mp)
		if err != nil {
			return nil, internalError("%v", err)
		}
		return MapResponse{
			Heuristic:  p.req.Heuristic,
			Ties:       p.ties,
			Seed:       p.req.Seed,
			Tasks:      p.in.Tasks(),
			Machines:   p.in.Machines(),
			Assign:     s.Mapping.Assign,
			Completion: s.Completion,
			Makespan:   s.Makespan(),
		}, nil
	case endpointIterate:
		tr, err := core.Iterate(p.in, h, p.policy())
		if err != nil {
			return nil, internalError("%v", err)
		}
		resp := IterateResponse{
			Heuristic:         p.req.Heuristic,
			Ties:              p.ties,
			Seed:              p.req.Seed,
			Tasks:             p.in.Tasks(),
			Machines:          p.in.Machines(),
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

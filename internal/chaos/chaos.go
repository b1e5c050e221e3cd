// Package chaos is the deterministic chaos harness: it composes
// internal/faults specs into phased, seeded scenario timelines, drives a
// schedload-style workload through an in-process serve stack, and
// machine-checks invariants after every run — every response is either a
// documented error envelope or byte-identical to the fault-free golden;
// metrics conserve (requests_total equals the sum of per-outcome counters);
// queue depth and in-flight return to zero; the goroutine count returns to
// its pre-scenario baseline; the circuit breaker only ever takes legal
// state-machine transitions; and spans conserve (exactly one well-formed
// span tree per request on each side, even for rejected, faulted or
// panicking requests).
//
// One Scenario type covers four topologies, read off which of its fields
// are set: a single instance behind a loopback listener, a gateway over
// several backends, a kill/restart of a disk-tiered stack, and a sick-disk
// arc over a fault-injecting filesystem. Run owns everything they share —
// validation, the seeded workload, goldens, outcome bucketing, the
// recovery replay and the verdict — and asks each topology only how its
// stack is built, what its phase boundaries do and the invariants only it
// can check.
//
// Determinism is the point: a scenario is replayed request by request from
// an explicit seed, serially, so the injectors' decision streams — and with
// them every count in the verdict Report — are exactly reproducible. The
// same seed produces a byte-identical report; flipping any fault
// probability changes it deterministically. Wall-clock shapes only when
// requests are sent (backoff, injected latency), never what any response
// contains, and no timing value appears in the report.
package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/etc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
)

// PanicSeed is the sentinel request seed the harness's serve.PanicTrigger
// panics on: scenarios schedule deliberate worker panics by sending an
// otherwise-valid request with this seed. Workload seeds must differ.
const PanicSeed uint64 = 0x70616e6963 // "panic"

// Phase is one segment of a phased timeline (the single-instance and
// cluster topologies): a request count (phases are request-counted, not
// wall-clock timed, so replays are deterministic) and the fault regime and
// membership in force while those requests are sent.
type Phase struct {
	Name string `json:"name"`
	// Requests is how many workload requests this phase sends, serially.
	Requests int `json:"requests"`
	// Faults is an internal/faults spec (e.g. "latency=0.3:1ms,drop=0.25")
	// wrapped around the server — around every backend, in a cluster — for
	// the phase; empty means fault-free. A seed= field is supplied by the
	// harness (derived from the scenario seed, phase and backend index) and
	// must not appear here.
	Faults string `json:"faults,omitempty"`
	// PanicEvery, when positive, replaces every PanicEvery-th request with
	// a PanicSeed request that deliberately panics a worker (single
	// instance only).
	PanicEvery int `json:"panic_every,omitempty"`
	// BatchEvery, when positive, sends every BatchEvery-th request as a
	// POST /v1/batch carrying all Distinct workload bodies as items — in a
	// cluster, the split-routing case. A request that is both a panic and a
	// batch slot panics (panic wins).
	BatchEvery int `json:"batch_every,omitempty"`
	// Kill and Revive name backend indices taken down / brought back at the
	// start of the phase, before any request (cluster only). A killed
	// backend's serve stack survives with its cache warm; only its listener
	// dies.
	Kill   []int `json:"kill,omitempty"`
	Revive []int `json:"revive,omitempty"`
}

// Scenario is a seeded failure schedule. The first seven fields apply to
// every scenario; the rest select and configure one topology (Topology
// names it), and validation rejects a mixture:
//
//   - single: Phases, MaxRetries, Threshold — one serve stack behind a
//     loopback listener, driven by a resilient client;
//   - cluster: Backends ≥ 2 plus Phases and MaxRetries — a gateway over
//     in-process backends, goldens from a separate single instance;
//   - restart: TornTailBytes > 0 — a warm lifetime, a crash that tears
//     the newest segment's tail, a second lifetime over the same store;
//   - disk: Storm, Resume, ProbeAfter and either FaultSpec + Rounds or
//     DiskFull — the warm → storm/full → resume/expand → readback arc of a
//     result tier on a fault-injecting filesystem.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Seed        uint64 `json:"seed"`
	Tasks       int    `json:"tasks"`
	Machines    int    `json:"machines"`
	// Distinct is the number of distinct workload bodies — for the disk
	// topology, the warm set persisted before the faults.
	Distinct  int    `json:"distinct"`
	Heuristic string `json:"heuristic"`

	MaxRetries int `json:"max_retries,omitempty"`
	// Threshold is the client breaker's trip threshold; 0 leaves it
	// effectively untrippable.
	Threshold int     `json:"breaker_threshold,omitempty"`
	Backends  int     `json:"backends,omitempty"`
	Phases    []Phase `json:"phases,omitempty"`

	// TornTailBytes is how much garbage the simulated crash appends to the
	// newest segment between lifetimes; recovery must truncate exactly this
	// many bytes and keep every whole record.
	TornTailBytes int `json:"torn_tail_bytes,omitempty"`

	// Storm is the number of fresh bodies posted mid-fault (or while the
	// disk is full); their writes are the ones the sick disk rejects.
	Storm int `json:"storm,omitempty"`
	// Rounds is how many times the warm set replays during a fault storm.
	Rounds int `json:"rounds,omitempty"`
	// Resume is the number of fresh bodies posted after repair; it must
	// exceed ProbeAfter so a write probe is guaranteed to land on a fresh
	// append and recover the tier.
	Resume int `json:"resume,omitempty"`
	// FaultSpec is the store.ParseFaultSpec grammar for the storm, minus
	// seed=: the scenario seed drives the fault filesystem.
	FaultSpec string `json:"fault_spec,omitempty"`
	// DiskFull selects the ENOSPC arc (a pinned byte budget) instead of
	// the I/O-error storm.
	DiskFull bool `json:"disk_full,omitempty"`
	// ProbeAfter is the store's recovery-probe cadence.
	ProbeAfter int `json:"probe_after,omitempty"`
}

// Topology names the scenario's topology — "single", "cluster",
// "restart" or "disk" — read off which per-topology fields are set.
func (sc Scenario) Topology() string {
	switch {
	case sc.Storm != 0 || sc.Rounds != 0 || sc.Resume != 0 || sc.ProbeAfter != 0 || sc.FaultSpec != "" || sc.DiskFull:
		return "disk"
	case sc.TornTailBytes != 0:
		return "restart"
	case sc.Backends != 0:
		return "cluster"
	}
	return "single"
}

func (sc Scenario) validate() error {
	if sc.Name == "" {
		return errors.New("chaos: scenario needs a name")
	}
	if sc.Seed == PanicSeed {
		return fmt.Errorf("chaos: scenario seed %#x collides with the panic sentinel", sc.Seed)
	}
	if sc.Tasks <= 0 || sc.Machines <= 0 || sc.Distinct <= 0 {
		return errors.New("chaos: tasks, machines and distinct must be positive")
	}
	topo := sc.Topology()
	phasing := len(sc.Phases) > 0 || sc.MaxRetries != 0 || sc.Threshold != 0 || sc.Backends != 0
	if (topo == "disk" || topo == "restart") && phasing || topo == "disk" && sc.TornTailBytes != 0 ||
		topo == "cluster" && sc.Threshold != 0 {
		return fmt.Errorf("chaos: scenario %s mixes %s fields with another topology's", sc.Name, topo)
	}
	switch topo {
	case "disk":
		return sc.validateDisk()
	case "restart":
		if sc.TornTailBytes < 0 {
			return errors.New("chaos: torn tail bytes must be non-negative")
		}
		return nil
	case "cluster":
		if sc.Backends < 2 {
			return errors.New("chaos: a cluster scenario needs at least two backends")
		}
	}
	if len(sc.Phases) == 0 {
		return errors.New("chaos: scenario needs at least one phase")
	}
	for i, ph := range sc.Phases {
		if ph.Requests <= 0 {
			return fmt.Errorf("chaos: phase %d (%s) needs a positive request count", i, ph.Name)
		}
		if strings.Contains(ph.Faults, "seed=") {
			return fmt.Errorf("chaos: phase %d (%s) must not pin its own fault seed", i, ph.Name)
		}
		if ph.PanicEvery < 0 || ph.BatchEvery < 0 {
			return fmt.Errorf("chaos: phase %d (%s) needs non-negative PanicEvery and BatchEvery", i, ph.Name)
		}
		if ph.PanicEvery > 0 && topo == "cluster" {
			return fmt.Errorf("chaos: phase %d (%s): cluster phases cannot schedule panics", i, ph.Name)
		}
		for _, idx := range append(slices.Clone(ph.Kill), ph.Revive...) {
			if idx < 0 || idx >= sc.Backends {
				return fmt.Errorf("chaos: phase %d (%s) names backend %d of %d", i, ph.Name, idx, sc.Backends)
			}
		}
	}
	return nil
}

func (sc Scenario) validateDisk() error {
	if sc.Storm <= 0 {
		return errors.New("chaos: a disk scenario needs a positive storm")
	}
	if sc.ProbeAfter <= 0 {
		return errors.New("chaos: probe cadence must be positive")
	}
	if sc.Resume <= sc.ProbeAfter {
		return errors.New("chaos: resume must exceed probe_after (a write probe must be guaranteed to land on a fresh append)")
	}
	if sc.DiskFull {
		if sc.FaultSpec != "" {
			return errors.New("chaos: disk-full uses the byte budget, not a fault spec")
		}
		return nil
	}
	if strings.Contains(sc.FaultSpec, "seed=") {
		return errors.New("chaos: the disk fault spec must not pin its own seed (the scenario seed drives it)")
	}
	spec, err := store.ParseFaultSpec(sc.FaultSpec)
	if err != nil {
		return err
	}
	if spec.ReadErrP <= 0 {
		return errors.New("chaos: disk-fault needs readerr > 0 (the storm must be able to knock reads offline)")
	}
	if sc.Rounds <= 0 {
		return errors.New("chaos: disk-fault needs at least one storm round")
	}
	return nil
}

// PhaseReport is one phase's outcome tally. Every request resolves to
// exactly one bucket, so OK+Mismatch+Transport+BreakerFastFail+sum(Errors)
// equals Requests.
type PhaseReport struct {
	Name     string `json:"name"`
	Requests int    `json:"requests"`
	// OK counts 200s byte-identical to the fault-free golden.
	OK int `json:"ok"`
	// Mismatch counts 200s whose body differed from the golden — always an
	// invariant violation.
	Mismatch int `json:"mismatch"`
	// Errors tallies error envelopes by "status:code", e.g. "503:injected_fault".
	Errors map[string]int `json:"errors,omitempty"`
	// Transport counts requests that exhausted retries on transport-level
	// faults (dropped connections, truncated bodies).
	Transport int `json:"transport"`
	// BreakerFastFail counts requests refused locally by the open breaker.
	BreakerFastFail int `json:"breaker_fastfail"`
	// BatchPosts counts the phase's requests sent as /v1/batch posts (a
	// subset of Requests; each batch post fills exactly one outcome bucket
	// above, so conservation is unchanged).
	BatchPosts int `json:"batch_posts,omitempty"`
	// BatchItemsOK counts batch items byte-identical to their goldens.
	BatchItemsOK int `json:"batch_items_ok,omitempty"`
	// BatchItemErrors tallies batch item error envelopes by "status:code" —
	// item-level failures inside 200 batch envelopes.
	BatchItemErrors map[string]int `json:"batch_item_errors,omitempty"`
}

// InvariantResult is one machine-checked invariant's verdict.
type InvariantResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// Report is a scenario run's full verdict. It is deterministic in the
// scenario: no timestamps, durations or addresses — same seed, same bytes.
type Report struct {
	Scenario    string        `json:"scenario"`
	Description string        `json:"description"`
	Seed        uint64        `json:"seed"`
	Phases      []PhaseReport `json:"phases"`
	// Recovered counts the fault-free replays after the disruption that
	// came back byte-identical to their goldens: one per distinct body for
	// the phased and restart topologies, the two readback keys for disk.
	Recovered int `json:"recovered"`
	// BreakerTransitions is the breaker's observed edge sequence, e.g.
	// "closed->open".
	BreakerTransitions []string `json:"breaker_transitions,omitempty"`
	// Panics is serve.panics_total after the run.
	Panics     int64             `json:"panics"`
	Invariants []InvariantResult `json:"invariants"`
	Pass       bool              `json:"pass"`
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Err returns the first failed invariant as an error, nil when every
// invariant holds.
func (r *Report) Err() error {
	for _, inv := range r.Invariants {
		if !inv.OK {
			return fmt.Errorf("invariant %s violated: %s", inv.Name, inv.Detail)
		}
	}
	return nil
}

// documentedCodes is the closed set of error codes a response may carry:
// the serve envelope codes plus the injector's own. Anything else fails the
// "responses" invariant.
var documentedCodes = map[string]bool{
	serve.CodeBadRequest:       true,
	serve.CodeMethodNotAllowed: true,
	serve.CodePayloadTooLarge:  true,
	serve.CodeValidationFailed: true,
	serve.CodeOverloaded:       true,
	serve.CodeInternal:         true,
	serve.CodePanic:            true,
	serve.CodeDraining:         true,
	serve.CodeDeadlineExceeded: true,
	// The cluster gateway's only gateway-originated error code (see
	// internal/cluster): every ranked backend unreachable.
	serve.CodeUpstreamUnavailable: true,
	"injected_fault":              true,
}

// topology is what differs between scenario kinds.
type topology interface {
	// up builds the stack. It may fill run.goldens itself (the single
	// instance serves them through its own listener); otherwise Run
	// computes them on a fault-free reference singleton.
	up() error
	// drive replays the timeline, tears the stack down and appends the
	// topology's own invariants in report order.
	drive() error
}

// phased is a topology driven by Scenario.Phases: a stack that stays up the
// whole run and is reshaped at each phase boundary.
type phased interface {
	// enter applies phase pi's boundary: fault regime and membership.
	enter(pi int, ph Phase) error
	// heal restores the fault-free, full stack for the recovery replay.
	heal() error
	post(path string, body []byte) exchange
	// settle runs after each exchange; exact says the phase is fault-free,
	// so its routing is exactly predictable.
	settle(where string, exact bool)
}

// phases replays the timeline through st, then the recovery: faults off,
// every distinct body (and the batch, if any phase used it) must come back
// 200 and byte-identical — the disrupted system has returned to correct
// state.
func (r *run) phases(st phased) error {
	sc := r.sc
	batchUsed := false
	next := 0 // workload cursor: distinct bodies cycle across phases
	for pi, ph := range sc.Phases {
		if err := st.enter(pi, ph); err != nil {
			return fmt.Errorf("chaos: phase %d (%s): %w", pi, ph.Name, err)
		}
		batchUsed = batchUsed || ph.BatchEvery > 0
		pr := newPhase(ph.Name, ph.Requests)
		for i := 0; i < ph.Requests; i++ {
			label := fmt.Sprintf("phase %s request %d", ph.Name, i)
			isPanic := ph.PanicEvery > 0 && (i+1)%ph.PanicEvery == 0
			switch {
			case !isPanic && ph.BatchEvery > 0 && (i+1)%ph.BatchEvery == 0:
				// A batch slot posts every distinct body in one exchange; it
				// fills exactly one outcome bucket, like any other request.
				pr.BatchPosts++
				r.file(&pr, label, st.post("/v1/batch", r.batchBody), r.batch(&pr), true)
			case isPanic:
				next++
				r.panics++
				r.file(&pr, label, st.post("/v1/iterate", r.panicBody),
					func([]byte) string { return "panic request returned 200" }, true)
			default:
				k := next % sc.Distinct
				next++
				r.file(&pr, label, st.post("/v1/iterate", r.bodies[k]), r.golden(k), true)
			}
			st.settle("phase "+ph.Name, ph.Faults == "")
		}
		r.rep.Phases = append(r.rep.Phases, pr)
	}

	if err := st.heal(); err != nil {
		return err
	}
	tally := newPhase("recovery", 0)
	for i := range sc.Distinct {
		if r.file(&tally, fmt.Sprintf("recovery request %d", i), st.post("/v1/iterate", r.bodies[i]), r.golden(i), false) {
			r.rep.Recovered++
		}
	}
	if batchUsed {
		if r.file(&tally, "recovery batch", st.post("/v1/batch", r.batchBody), r.batch(&tally), false) &&
			tally.BatchItemsOK != sc.Distinct {
			r.violate("recovery batch: %d of %d items byte-identical", tally.BatchItemsOK, sc.Distinct)
		}
	}
	st.settle("recovery", true)
	return nil
}

// run is the state one scenario replay shares across its topology.
type run struct {
	sc  Scenario
	rep *Report

	// bodies are the seeded workload: Distinct bodies, then (disk only)
	// Storm and Resume fresh ones. goldens[i] is bodies[i]'s fault-free
	// response; goldenItems the same minus the trailing newline, as batch
	// envelopes embed it.
	bodies, goldens, goldenItems [][]byte
	// panicBody is bodies[0]'s matrix under PanicSeed — a distinct cache
	// key that always reaches a worker and always panics. batchBody carries
	// the Distinct bodies as one /v1/batch post.
	panicBody, batchBody []byte
	panics               int // panic requests scheduled

	violations []string
	atExit     []func()
}

// Run replays one scenario and returns its verdict report. The returned
// error covers harness failures (bad scenario, no listener); invariant
// violations are reported in Report.Invariants/Pass (and Report.Err), not
// as errors.
func Run(sc Scenario) (*Report, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if sc.Heuristic == "" {
		sc.Heuristic = "min-min"
	}
	baseline := runtime.NumGoroutine()
	r := &run{sc: sc, rep: &Report{Scenario: sc.Name, Description: sc.Description, Seed: sc.Seed}}
	defer func() {
		for i := len(r.atExit) - 1; i >= 0; i-- {
			r.atExit[i]()
		}
	}()
	if err := r.workload(); err != nil {
		return nil, err
	}
	var t topology
	switch sc.Topology() {
	case "cluster":
		t = &clustered{r: r}
	case "restart":
		t = &restart{r: r}
	case "disk":
		t = &disk{r: r}
	default:
		t = &single{r: r}
	}
	if err := t.up(); err != nil {
		return nil, err
	}
	if r.goldens == nil {
		if err := r.referenceGoldens(); err != nil {
			return nil, err
		}
	}
	for _, g := range r.goldens[:sc.Distinct] {
		r.goldenItems = append(r.goldenItems, bytes.TrimSuffix(g, []byte("\n")))
	}
	if err := t.drive(); err != nil {
		return nil, err
	}

	// "responses" leads every report and "goroutines" closes it; the
	// topology's own invariants sit between, in the order drive added them.
	responses := InvariantResult{Name: "responses", OK: len(r.violations) == 0,
		Detail: "every response documented or byte-identical to golden"}
	if !responses.OK {
		responses.Detail = strings.Join(r.violations, "; ")
	}
	r.rep.Invariants = append([]InvariantResult{responses}, r.rep.Invariants...)
	leaked, goroutines := goroutineLeak(baseline)
	// The passing detail carries no counts: the pre-run baseline depends on
	// process state (idle pool goroutines from earlier runs), and absolute
	// numbers would break the byte-identical-report promise. A failing
	// detail may name the counts — a leak has already broken determinism.
	goroutineDetail := "returned to baseline within slack"
	if leaked {
		goroutineDetail = fmt.Sprintf("leak: %d goroutines vs baseline %d", goroutines, baseline)
	}
	r.check("goroutines", !leaked, goroutineDetail)
	r.rep.Pass = r.rep.Err() == nil
	return r.rep, nil
}

// workload generates the seeded bodies: hihi-i matrices (the paper's
// hardest heterogeneity regime), one stream from the scenario seed.
func (r *run) workload() error {
	sc := r.sc
	class := classByLabel("hihi-i")
	src := rng.New(sc.Seed)
	reqs := make([]serve.Request, sc.Distinct+sc.Storm+sc.Resume)
	for i := range reqs {
		m, err := etc.GenerateClass(class, sc.Tasks, sc.Machines, src)
		if err != nil {
			return fmt.Errorf("chaos: generating workload: %w", err)
		}
		reqs[i] = serve.Request{ETC: m.Values(), Heuristic: sc.Heuristic, Ties: "det", Seed: sc.Seed}
		body, err := json.Marshal(reqs[i])
		if err != nil {
			return err
		}
		r.bodies = append(r.bodies, body)
	}
	panicReq := reqs[0]
	panicReq.Seed = PanicSeed
	items := make([]serve.BatchItem, sc.Distinct)
	for i := range items {
		items[i] = serve.BatchItem{Endpoint: "iterate", Request: reqs[i]}
	}
	var err error
	if r.panicBody, err = json.Marshal(panicReq); err != nil {
		return err
	}
	r.batchBody, err = json.Marshal(serve.BatchRequest{Items: items})
	return err
}

// referenceGoldens computes every workload body once on a fault-free,
// storeless singleton: the bytes every later 200 must match, whatever the
// cluster or the disk is doing.
func (r *run) referenceGoldens() error {
	ref := serve.NewServer(serve.Options{Workers: 2})
	for i, b := range r.bodies {
		ex := record(ref.Handler(), "/v1/iterate", b)
		if ex.status != http.StatusOK {
			return fmt.Errorf("chaos: golden request %d: status %d: %s", i, ex.status, ex.body)
		}
		r.goldens = append(r.goldens, ex.body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ref.Drain(ctx); err != nil {
		return fmt.Errorf("chaos: reference drain: %w", err)
	}
	return nil
}

func (r *run) violate(format string, args ...any) {
	if len(r.violations) < 16 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

func (r *run) check(name string, ok bool, detail string) {
	r.rep.Invariants = append(r.rep.Invariants, InvariantResult{Name: name, OK: ok, Detail: detail})
}

// exchange is one request's outcome as the harness sees it: a status and
// body, or a local failure (status 0) that never got a response.
type exchange struct {
	status   int
	body     []byte
	cache    string // X-Schedd-Cache
	fastFail bool   // refused locally by the open breaker
}

// class renders the outcome for a violation detail without
// nondeterministic detail (ports, raw transport messages).
func (ex exchange) class() string {
	switch {
	case ex.fastFail:
		return "breaker fast-fail"
	case ex.status == 0:
		return "transport failure"
	}
	return fmt.Sprintf("status %d (%s)", ex.status, envelopeCode(ex.body))
}

// record serves one POST in-process.
func record(h http.Handler, path string, body []byte) exchange {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return exchange{status: rec.Code, body: rec.Body.Bytes(), cache: rec.Header().Get("X-Schedd-Cache")}
}

// file buckets one exchange into pr and reports whether it was a clean
// 200. A 200 is judged by match (a violation detail, empty when clean);
// any other outcome is tallied, and violates when its error code is
// undocumented — or at all, unless tolerant (faulted phases tolerate
// documented failures; recovery and the disk tier never do).
func (r *run) file(pr *PhaseReport, label string, ex exchange, match func([]byte) string, tolerant bool) bool {
	if ex.status == http.StatusOK {
		if detail := match(ex.body); detail != "" {
			pr.Mismatch++
			r.violate("%s: %s", label, detail)
			return false
		}
		pr.OK++
		return true
	}
	switch {
	case ex.fastFail:
		pr.BreakerFastFail++
	case ex.status == 0:
		pr.Transport++
	default:
		code := envelopeCode(ex.body)
		pr.Errors[fmt.Sprintf("%d:%s", ex.status, code)]++
		if !documentedCodes[code] {
			r.violate("%s: undocumented error code %q (status %d)", label, code, ex.status)
			return false
		}
	}
	if !tolerant {
		r.violate("%s: %s", label, ex.class())
	}
	return false
}

// golden matches a 200 body against bodies[k]'s golden.
func (r *run) golden(k int) func([]byte) string {
	return func(body []byte) string {
		if bytes.Equal(body, r.goldens[k]) {
			return ""
		}
		return fmt.Sprintf("200 body differs from golden %d", k)
	}
}

// batch matches a 200 batch envelope item by item, tallying into pr.
func (r *run) batch(pr *PhaseReport) func([]byte) string {
	return func(body []byte) string { return tallyBatchItems(body, r.goldenItems, pr) }
}

// expect posts bodies[k] to a store-backed server and files the outcome
// strictly. want is the set of acceptable X-Schedd-Cache headers on a
// clean 200; the observed header is returned either way.
func (r *run) expect(srv *serve.Server, pr *PhaseReport, label string, k int, want ...string) (cache string, ok bool) {
	ex := record(srv.Handler(), "/v1/iterate", r.bodies[k])
	ok = r.file(pr, label, ex, r.golden(k), false)
	if ok && !slices.Contains(want, ex.cache) {
		r.violate("%s: cache %q, want one of %v", label, ex.cache, want)
	}
	return ex.cache, ok
}

// conserved checks prefix.requests_total against its per-class outcome
// counters and returns the total.
func (r *run) conserved(counters map[string]int64, prefix string) int64 {
	total := counters[prefix+".requests_total"]
	sum := counters[prefix+".responses_2xx"] + counters[prefix+".responses_4xx"] + counters[prefix+".responses_5xx"]
	r.check("metrics_conservation", total == sum,
		fmt.Sprintf("%s.requests_total=%d, 2xx+4xx+5xx=%d", prefix, total, sum))
	return total
}

// quiesced checks the serve queue and in-flight gauges returned to zero.
func (r *run) quiesced(reg *obs.Metrics) {
	g := gaugesOf(reg)
	r.check("quiesced", g["serve.queue_depth"] == 0 && g["serve.inflight"] == 0,
		fmt.Sprintf("queue_depth=%g inflight=%g", g["serve.queue_depth"], g["serve.inflight"]))
}

func (r *run) recovered(what string) {
	r.check("recovery", r.rep.Recovered == r.sc.Distinct,
		fmt.Sprintf("%d of %d %s replays byte-identical", r.rep.Recovered, r.sc.Distinct, what))
}

// newPhase starts a phase tally.
func newPhase(name string, requests int) PhaseReport {
	return PhaseReport{Name: name, Requests: requests, Errors: map[string]int{}}
}

// tallyBatchItems checks one 200 batch envelope: every item must be a 200
// byte-identical to its golden or carry a documented error code. Item
// tallies accumulate into pr; the return value is a violation detail, empty
// when the envelope is clean (item-level documented errors are clean — the
// batch reported them correctly).
func tallyBatchItems(envelope []byte, goldenItems [][]byte, pr *PhaseReport) string {
	var br serve.BatchResponse
	if err := json.Unmarshal(envelope, &br); err != nil {
		return "batch envelope unparseable"
	}
	if len(br.Results) != len(goldenItems) {
		return fmt.Sprintf("batch envelope has %d results for %d items", len(br.Results), len(goldenItems))
	}
	detail := ""
	for i, res := range br.Results {
		if res.Status == http.StatusOK {
			if bytes.Equal(res.Body, goldenItems[i]) {
				pr.BatchItemsOK++
			} else if detail == "" {
				detail = fmt.Sprintf("batch item %d: 200 body differs from golden", i)
			}
			continue
		}
		code := envelopeCode(res.Body)
		if pr.BatchItemErrors == nil {
			pr.BatchItemErrors = map[string]int{}
		}
		pr.BatchItemErrors[fmt.Sprintf("%d:%s", res.Status, code)]++
		if !documentedCodes[code] && detail == "" {
			detail = fmt.Sprintf("batch item %d: undocumented error code %q (status %d)", i, code, res.Status)
		}
	}
	return detail
}

func countersOf(reg *obs.Metrics) map[string]int64 {
	m := map[string]int64{}
	for _, c := range reg.Snapshot().Counters {
		m[c.Name] = c.Value
	}
	return m
}

func gaugesOf(reg *obs.Metrics) map[string]float64 {
	m := map[string]float64{}
	for _, g := range reg.Snapshot().Gauges {
		m[g.Name] = g.Value
	}
	return m
}

// spansOf extracts the span events from a collector.
func spansOf(col *obs.Collector) []obs.Span {
	var out []obs.Span
	for _, e := range col.Events() {
		if sp, ok := e.(obs.Span); ok {
			out = append(out, sp)
		}
	}
	return out
}

// transitionsOf extracts the breaker edges a collector observed.
func transitionsOf(col *obs.Collector) []string {
	var out []string
	for _, e := range col.Events() {
		if bt, ok := e.(obs.BreakerTransition); ok {
			out = append(out, bt.From+"->"+bt.To)
		}
	}
	return out
}

// envelopeCode extracts the error code from an envelope body; unparseable
// bodies classify as "(unparseable)" and fail the documented-code check.
func envelopeCode(body []byte) string {
	var er serve.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code == "" {
		return "(unparseable)"
	}
	return er.Error.Code
}

// goroutineLeak polls until the goroutine count returns to the baseline
// (plus slack for runtime internals) or the deadline passes. Wall-clock
// bounded, but the verdict it feeds into the report is boolean — timing
// never shapes report bytes beyond pass/fail of a genuine leak.
func goroutineLeak(baseline int) (leaked bool, count int) {
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for {
		count = runtime.NumGoroutine()
		if count <= baseline+slack {
			return false, count
		}
		if time.Now().After(deadline) {
			return true, count
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// classByLabel resolves a workload class; the harness pins hihi-i (the
// paper's hardest heterogeneity regime).
func classByLabel(label string) etc.Class {
	for _, c := range etc.AllClasses() {
		if c.Label() == label {
			return c
		}
	}
	return etc.Class{}
}

// Builtin returns the harness's stock scenarios, each with a pinned seed.
// Names are stable: scripts and selfchecks refer to them.
func Builtin() []Scenario {
	return []Scenario{
		{
			Name:        "storm",
			Description: "healthy baseline, latency+drop storm, reject burst, recovery",
			Seed:        7, Tasks: 12, Machines: 4, Distinct: 4,
			Heuristic: "min-min", MaxRetries: 8,
			Phases: []Phase{
				{Name: "healthy", Requests: 12},
				{Name: "latency-drop", Requests: 12, Faults: "latency=0.3:1ms,drop=0.25"},
				{Name: "reject-burst", Requests: 12, Faults: "reject=0.5:503:1"},
				{Name: "calm", Requests: 12},
			},
		},
		{
			Name:        "truncate-flood",
			Description: "truncated bodies flood the client; retries must recover exact bytes",
			Seed:        11, Tasks: 10, Machines: 5, Distinct: 3,
			Heuristic: "sufferage", MaxRetries: 8,
			Phases: []Phase{
				{Name: "healthy", Requests: 6},
				{Name: "flood", Requests: 18, Faults: "truncate=0.6"},
				{Name: "calm", Requests: 6},
			},
		},
		{
			Name:        "batch-storm",
			Description: "mixed singleton and batch traffic under latency and truncation; batch items stay byte-identical or documented",
			Seed:        19, Tasks: 10, Machines: 4, Distinct: 3,
			Heuristic: "min-min", MaxRetries: 8,
			Phases: []Phase{
				{Name: "healthy", Requests: 8, BatchEvery: 2},
				{Name: "latency-truncate", Requests: 16, BatchEvery: 2, Faults: "latency=0.2:1ms,truncate=0.4"},
				{Name: "calm", Requests: 8, BatchEvery: 2},
			},
		},
		{
			Name:        "breaker-trip",
			Description: "total blackout trips the breaker; recovery closes it legally",
			Seed:        13, Tasks: 8, Machines: 4, Distinct: 2,
			Heuristic: "max-min", MaxRetries: 1, Threshold: 3,
			Phases: []Phase{
				{Name: "healthy", Requests: 6},
				{Name: "blackout", Requests: 10, Faults: "reject=1.0:503"},
				{Name: "calm", Requests: 6},
			},
		},
		{
			Name:        "panic-isolation",
			Description: "deliberate worker panics interleaved with healthy traffic",
			Seed:        17, Tasks: 9, Machines: 3, Distinct: 3,
			Heuristic: "min-min", MaxRetries: 1,
			Phases: []Phase{
				{Name: "healthy", Requests: 6},
				{Name: "panic-storm", Requests: 12, PanicEvery: 3},
				{Name: "calm", Requests: 6},
			},
		},
		{
			Name:        "backend-kill",
			Description: "a backend dies mid-storm; its keys fail over, everyone else's stay put, bytes never change",
			Seed:        23, Tasks: 10, Machines: 4, Distinct: 4,
			Heuristic: "min-min", Backends: 3, MaxRetries: 1,
			Phases: []Phase{
				{Name: "healthy", Requests: 8},
				{Name: "kill", Requests: 12, Kill: []int{1}},
				{Name: "storm-over-loss", Requests: 12, Faults: "latency=0.2:1ms,reject=0.3:503"},
				{Name: "revive", Requests: 8, Revive: []int{1}},
			},
		},
		{
			Name:        "backend-rejoin",
			Description: "kill and revive under fault-free traffic; keys leave exactly once and return exactly once",
			Seed:        29, Tasks: 9, Machines: 3, Distinct: 6,
			Heuristic: "sufferage", Backends: 3, MaxRetries: 1,
			Phases: []Phase{
				{Name: "healthy", Requests: 6},
				{Name: "down", Requests: 12, Kill: []int{0}},
				{Name: "rejoin", Requests: 12, Revive: []int{0}},
			},
		},
		{
			Name:        "split-routing-storm",
			Description: "batch fan-outs across four backends under truncation, drop and a mid-storm kill; merged envelopes stay byte-identical",
			Seed:        31, Tasks: 10, Machines: 4, Distinct: 4,
			Heuristic: "min-min", Backends: 4, MaxRetries: 2,
			Phases: []Phase{
				{Name: "healthy", Requests: 8, BatchEvery: 2},
				{Name: "storm", Requests: 12, BatchEvery: 2, Faults: "latency=0.2:1ms,truncate=0.4"},
				{Name: "kill-under-storm", Requests: 10, BatchEvery: 2, Kill: []int{2}, Faults: "drop=0.25"},
				{Name: "calm", Requests: 8, BatchEvery: 2, Revive: []int{2}},
			},
		},
		{
			Name:        "restart-recovery",
			Description: "kill and restart with a disk result tier and a torn segment tail; every warm body returns from disk byte-identical, then promotes",
			Seed:        37, Tasks: 10, Machines: 4, Distinct: 4,
			Heuristic: "min-min", TornTailBytes: 41,
		},
		{
			Name:        "disk-fault",
			Description: "seeded EIO/short-write storm on the result tier mid-traffic, then repair; responses stay byte-identical throughout and disk hits resume",
			Seed:        53, Tasks: 8, Machines: 3, Distinct: 6,
			Heuristic: "min-min", Storm: 6, Rounds: 3, Resume: 16, ProbeAfter: 4,
			FaultSpec: "readerr=0.45,writeerr=0.35,shortwrite=0.25",
		},
		{
			Name:        "disk-full",
			Description: "ENOSPC pins the result tier read-only: stored bodies keep serving from disk, new writes drop with exact accounting, and lifting the budget recovers",
			Seed:        59, Tasks: 8, Machines: 3, Distinct: 5,
			Heuristic: "min-min", Storm: 7, Resume: 9, ProbeAfter: 4, DiskFull: true,
		},
	}
}

// ByName returns the builtin scenario with that name; the error for an
// unknown name lists every builtin, sorted.
func ByName(name string) (Scenario, error) {
	var names []string
	for _, sc := range Builtin() {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	sort.Strings(names)
	return Scenario{}, fmt.Errorf("chaos: unknown scenario %q (available: %s)", name, strings.Join(names, ", "))
}

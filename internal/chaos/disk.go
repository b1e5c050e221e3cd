package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/etc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
)

// DiskScenario is a phased sick-disk schedule for a serve stack whose
// result tier sits on a FaultFS (internal/store): a warm phase persists a
// workload on a healthy disk, a storm phase turns on seeded I/O faults (or
// exhausts an ENOSPC byte budget) under live traffic, and a resume phase
// repairs the disk and drives the request-counted probe ladder back to
// Healthy. The verdict machine-checks graceful degradation: every response
// in every phase is byte-identical to a fault-free singleton's, zero 5xx
// are attributable to the disk tier, and the health machine ends Healthy.
//
// Determinism: request-path reads and serve-side gating are strictly serial
// here, and offline-ness is reader-exclusive (writers only move the machine
// between Healthy and Degraded), so the reader-side decision stream — cache
// headers, skipped consults, injected read errors, offline intervals —
// replays exactly. The report quotes only replay-exact numbers, so same
// scenario + seed means byte-identical report bytes. Write-behind appends
// race the request loop in the disk-fault storm, so their per-outcome split
// is deliberately absent from that report (only interleaving-free sums
// appear); the disk-full variant draws no randomness at all and accounts
// for every rejected write exactly.
type DiskScenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Seed        uint64 `json:"seed"`
	Tasks       int    `json:"tasks"`
	Machines    int    `json:"machines"`
	// Warm is the number of distinct bodies persisted before the faults.
	Warm int `json:"warm"`
	// Storm is the number of fresh bodies posted mid-fault (disk-fault) or
	// while the disk is full (disk-full); their writes are the ones the
	// sick disk rejects.
	Storm int `json:"storm"`
	// Rounds is how many times the warm set replays during the storm
	// (disk-fault only).
	Rounds int `json:"rounds,omitempty"`
	// Resume is the number of fresh bodies posted after repair; must exceed
	// ProbeAfter so a write probe is guaranteed to land on a fresh append
	// and recover the tier.
	Resume    int    `json:"resume"`
	Heuristic string `json:"heuristic"`
	// FaultSpec is the store.ParseFaultSpec grammar for the storm
	// (disk-fault only; disk-full uses the deterministic byte budget).
	FaultSpec string `json:"fault_spec,omitempty"`
	// DiskFull selects the ENOSPC arc instead of the I/O-error arc.
	DiskFull bool `json:"disk_full,omitempty"`
	// ProbeAfter is the store's recovery-probe cadence.
	ProbeAfter int `json:"probe_after"`
}

func (sc DiskScenario) validate() error {
	if sc.Name == "" {
		return errors.New("chaos: disk scenario needs a name")
	}
	if sc.Seed == PanicSeed {
		return fmt.Errorf("chaos: scenario seed %#x collides with the panic sentinel", sc.Seed)
	}
	if sc.Tasks <= 0 || sc.Machines <= 0 || sc.Warm <= 0 || sc.Storm <= 0 {
		return errors.New("chaos: tasks, machines, warm and storm must be positive")
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

// diskRun is the shared state of one scenario replay: one store over one
// FaultFS, a sequence of server lifetimes (each with its own metrics
// registry), and the goldens every phase must reproduce.
type diskRun struct {
	sc         DiskScenario
	rep        *Report
	violations []string

	st  *store.Store
	ffs *store.FaultFS

	srv  *serve.Server
	regs []*obs.Metrics

	goldens      [][]byte
	warmBodies   [][]byte
	stormBodies  [][]byte
	resumeBodies [][]byte

	warmWrites int64
	baseline   int
}

func (d *diskRun) violate(format string, args ...any) {
	if len(d.violations) < 16 {
		d.violations = append(d.violations, fmt.Sprintf(format, args...))
	}
}

func postIterate(srv *serve.Server, body []byte) (*httptest.ResponseRecorder, string) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/iterate", bytes.NewReader(body)))
	return rec, rec.Header().Get("X-Schedd-Cache")
}

// startPhase begins a fresh server lifetime over the shared store. The LRU
// is disabled outright (CacheEntries -1) so every request exercises the
// disk tier — the scenario is about the disk path, not memory hits.
func (d *diskRun) startPhase() {
	reg := obs.NewMetrics()
	d.regs = append(d.regs, reg)
	d.srv = serve.NewServer(serve.Options{Workers: 2, CacheEntries: -1, Store: d.st, Metrics: reg})
}

// endPhase drains the current lifetime, flushing the write-behind queue so
// cross-phase accounting is exact.
func (d *diskRun) endPhase() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return d.srv.Drain(ctx)
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

// lastCounters snapshots the registry of the lifetime that just ended.
func (d *diskRun) lastCounters() map[string]int64 {
	return countersOf(d.regs[len(d.regs)-1])
}

// expect posts body to the current lifetime and buckets the outcome against
// its fault-free golden. wantCache, when given, is the set of acceptable
// X-Schedd-Cache headers; the observed header is returned either way.
func (d *diskRun) expect(ph *PhaseReport, body, golden []byte, label string, wantCache ...string) string {
	rec, cache := postIterate(d.srv, body)
	switch {
	case rec.Code != http.StatusOK:
		ph.Errors[fmt.Sprintf("%d:%s", rec.Code, envelopeCode(rec.Body.Bytes()))]++
		d.violate("%s: status %d", label, rec.Code)
	case !bytes.Equal(rec.Body.Bytes(), golden):
		ph.Mismatch++
		d.violate("%s: body differs from the fault-free golden", label)
	default:
		ph.OK++
		if len(wantCache) > 0 {
			ok := false
			for _, w := range wantCache {
				if cache == w {
					ok = true
				}
			}
			if !ok {
				d.violate("%s: cache %q, want one of %v", label, cache, wantCache)
			}
		}
	}
	return cache
}

func (d *diskRun) check(name string, ok bool, detail string) {
	d.rep.Invariants = append(d.rep.Invariants, InvariantResult{Name: name, OK: ok, Detail: detail})
}

// readback runs the final lifetime: the newest resume body and the oldest
// warm body must both come back from disk — the tier survived the arc
// end to end.
func (d *diskRun) readback() error {
	d.startPhase()
	ph := PhaseReport{Name: "readback", Requests: 2, Errors: map[string]int{}}
	last := len(d.goldens) - 1
	if cache := d.expect(&ph, d.resumeBodies[len(d.resumeBodies)-1], d.goldens[last], "readback newest", "disk"); cache == "disk" {
		d.rep.Recovered++
	}
	if cache := d.expect(&ph, d.warmBodies[0], d.goldens[0], "readback oldest", "disk"); cache == "disk" {
		d.rep.Recovered++
	}
	d.rep.Phases = append(d.rep.Phases, ph)
	if err := d.endPhase(); err != nil {
		return fmt.Errorf("chaos: readback drain: %w", err)
	}
	return nil
}

// finish appends the invariants every disk scenario shares and computes the
// verdict. Called after all branch-specific checks so "responses" stays
// first and the housekeeping invariants stay last, matching the other
// harnesses.
func (d *diskRun) finish() *Report {
	var fiveXX int64
	for _, reg := range d.regs {
		fiveXX += countersOf(reg)["serve.responses_5xx"]
	}
	d.check("no_disk_5xx", fiveXX == 0,
		fmt.Sprintf("%d 5xx responses across %d server lifetimes (a sick disk must never surface to a client)", fiveXX, len(d.regs)))
	gauges := gaugesOf(d.regs[len(d.regs)-1])
	d.check("quiesced", gauges["serve.queue_depth"] == 0 && gauges["serve.inflight"] == 0,
		fmt.Sprintf("queue_depth=%g inflight=%g", gauges["serve.queue_depth"], gauges["serve.inflight"]))
	leaked, goroutines := goroutineLeak(d.baseline)
	goroutineDetail := "returned to baseline within slack"
	if leaked {
		goroutineDetail = fmt.Sprintf("leak: %d goroutines vs baseline %d", goroutines, d.baseline)
	}
	d.check("goroutines", !leaked, goroutineDetail)

	d.rep.Pass = true
	for _, inv := range d.rep.Invariants {
		if !inv.OK {
			d.rep.Pass = false
		}
	}
	return d.rep
}

// RunDisk replays one disk scenario and returns its verdict report. The
// store directory is a fresh temp dir, named nowhere in the report; same
// scenario + seed, same report bytes.
func RunDisk(sc DiskScenario) (*Report, error) {
	if err := sc.validate(); err != nil {
		return nil, err
	}
	if sc.Heuristic == "" {
		sc.Heuristic = "min-min"
	}

	baseline := runtime.NumGoroutine()
	dir, err := os.MkdirTemp("", "schedchaos-disk-*")
	if err != nil {
		return nil, fmt.Errorf("chaos: store dir: %w", err)
	}
	defer os.RemoveAll(dir)

	// Deterministic workload: warm, storm-fresh and resume-fresh bodies,
	// all distinct, all from one seeded stream.
	class := classByLabel("hihi-i")
	src := rng.New(sc.Seed)
	total := sc.Warm + sc.Storm + sc.Resume
	bodies := make([][]byte, total)
	for i := range bodies {
		m, err := etc.GenerateClass(class, sc.Tasks, sc.Machines, src)
		if err != nil {
			return nil, fmt.Errorf("chaos: generating workload: %w", err)
		}
		bodies[i], err = json.Marshal(serve.Request{ETC: m.Values(), Heuristic: sc.Heuristic, Ties: "det", Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
	}

	// Goldens: a fault-free, storeless singleton computes every body once.
	// Every response in every later phase must match these bytes exactly,
	// whatever the disk is doing.
	goldens := make([][]byte, total)
	ref := serve.NewServer(serve.Options{Workers: 2, Metrics: obs.NewMetrics()})
	for i, b := range bodies {
		rec, _ := postIterate(ref, b)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("chaos: golden request %d: status %d", i, rec.Code)
		}
		goldens[i] = append([]byte(nil), rec.Body.Bytes()...)
	}
	refCtx, refCancel := context.WithTimeout(context.Background(), 10*time.Second)
	refErr := ref.Drain(refCtx)
	refCancel()
	if refErr != nil {
		return nil, fmt.Errorf("chaos: golden drain: %w", refErr)
	}

	// The faulted stack: one store, opened once, over a FaultFS that starts
	// quiet. The fingerprint index keeps absent-key lookups off the disk,
	// so fresh bodies never consume a read draw — load-bearing for replay.
	var spec store.FaultSpec
	if !sc.DiskFull {
		spec, _ = store.ParseFaultSpec(sc.FaultSpec) // validated above
	}
	ffs := store.NewFaultFS(nil, spec)
	ffs.SetEnabled(false)
	st, err := store.Open(dir, store.Options{FS: ffs, ProbeAfter: sc.ProbeAfter})
	if err != nil {
		return nil, fmt.Errorf("chaos: open store: %w", err)
	}
	defer st.Close()

	d := &diskRun{
		sc:           sc,
		rep:          &Report{Scenario: sc.Name, Description: sc.Description, Seed: sc.Seed},
		st:           st,
		ffs:          ffs,
		goldens:      goldens,
		warmBodies:   bodies[:sc.Warm],
		stormBodies:  bodies[sc.Warm : sc.Warm+sc.Storm],
		resumeBodies: bodies[sc.Warm+sc.Storm:],
		baseline:     baseline,
	}

	// ---- Warm: persist the workload on a healthy disk, then prove a fresh
	// lifetime serves it from disk. The second lifetime rolls into the
	// storm below — same server, same registry.
	d.startPhase()
	warm := PhaseReport{Name: "warm", Requests: 2 * sc.Warm, Errors: map[string]int{}}
	for i, b := range d.warmBodies {
		d.expect(&warm, b, d.goldens[i], fmt.Sprintf("warm %d", i), "miss")
	}
	if err := d.endPhase(); err != nil {
		return nil, fmt.Errorf("chaos: warm drain: %w", err)
	}
	d.warmWrites = d.lastCounters()["serve.disk_writes"]
	d.startPhase()
	for i, b := range d.warmBodies {
		d.expect(&warm, b, d.goldens[i], fmt.Sprintf("warm replay %d", i), "disk")
	}
	d.rep.Phases = append(d.rep.Phases, warm)

	if sc.DiskFull {
		return d.runFull()
	}
	return d.runFault()
}

// runFault is the I/O-error arc: a seeded read/write/short-write storm
// knocks the tier offline under live traffic; repair plus the
// request-counted probe ladder bring it back to Healthy.
func (d *diskRun) runFault() (*Report, error) {
	sc := d.sc

	// ---- Storm: faults on. Warm replays may be served from disk (read
	// survived), recomputed (read failed → fallthrough) or gated (offline
	// between probes) — byte-identical in every case. Fresh bodies always
	// compute; their write-behind appends meet the sick disk off the
	// request path.
	d.ffs.SetEnabled(true)
	storm := PhaseReport{Name: "storm", Requests: sc.Rounds*sc.Warm + sc.Storm, Errors: map[string]int{}}
	diskServed := 0
	sawOffline := false
	for r := 0; r < sc.Rounds; r++ {
		for i, b := range d.warmBodies {
			cache := d.expect(&storm, b, d.goldens[i], fmt.Sprintf("storm round %d warm %d", r, i), "disk", "miss")
			if cache == "disk" {
				diskServed++
			}
			if d.st.Health() == store.Offline {
				sawOffline = true
			}
		}
	}
	for i, b := range d.stormBodies {
		d.expect(&storm, b, d.goldens[sc.Warm+i], fmt.Sprintf("storm fresh %d", i), "miss")
	}
	d.rep.Phases = append(d.rep.Phases, storm)
	if err := d.endPhase(); err != nil {
		return nil, fmt.Errorf("chaos: storm drain: %w", err)
	}
	stormCounters := d.lastCounters()

	// ---- Resume: disk repaired. Warm replays drive the read-probe ladder
	// (gated consults recompute, the probe lands, disk hits return); fresh
	// bodies drive the write-probe ladder back to Healthy.
	d.ffs.SetEnabled(false)
	d.startPhase()
	resume := PhaseReport{Name: "resume", Requests: 2*sc.ProbeAfter + sc.Resume, Errors: map[string]int{}}
	gated := 0
	lastWarm := ""
	for i := 0; i < 2*sc.ProbeAfter; i++ {
		b := d.warmBodies[i%sc.Warm]
		cache := d.expect(&resume, b, d.goldens[i%sc.Warm], fmt.Sprintf("resume warm %d", i), "disk", "miss")
		if cache == "miss" {
			gated++
		}
		lastWarm = cache
	}
	if lastWarm != "disk" {
		d.violate("resume: final warm replay cache %q, want disk (the read probe must have fired within a probe window)", lastWarm)
	}
	for i, b := range d.resumeBodies {
		d.expect(&resume, b, d.goldens[sc.Warm+sc.Storm+i], fmt.Sprintf("resume fresh %d", i), "miss")
	}
	d.rep.Phases = append(d.rep.Phases, resume)
	if err := d.endPhase(); err != nil {
		return nil, fmt.Errorf("chaos: resume drain: %w", err)
	}
	resumeCounters := d.lastCounters()

	if err := d.readback(); err != nil {
		return nil, err
	}

	stats := d.st.Stats()
	faults := d.ffs.Counts()
	skipped := stormCounters["serve.disk_skipped"] + resumeCounters["serve.disk_skipped"]
	d.check("responses", len(d.violations) == 0, responsesDetail(d.violations))
	d.check("warm_persisted", d.warmWrites == int64(sc.Warm),
		fmt.Sprintf("%d of %d warm bodies durable before the storm", d.warmWrites, sc.Warm))
	d.check("injected", faults.ReadErrs >= 1,
		fmt.Sprintf("%d injected read errors on the serial request path (replay-exact)", faults.ReadErrs))
	d.check("offline_gating", sawOffline && skipped >= 1,
		fmt.Sprintf("store went offline %d time(s); %d consults skipped while offline; %d of %d storm replays still served from disk",
			stats.Offlines, skipped, diskServed, sc.Rounds*sc.Warm))
	// Only the sum is interleaving-free: how many writes were appended vs
	// dropped depends on where the storm drain left the health machine.
	decided := resumeCounters["serve.disk_writes"] + resumeCounters["serve.disk_write_drops"]
	d.check("resume_accounting",
		decided == int64(gated+sc.Resume) && resumeCounters["serve.disk_errors"] == 0,
		fmt.Sprintf("%d write-behind decisions for %d gated recomputes + %d fresh bodies; every computed body written or dropped, never errored",
			decided, gated, sc.Resume))
	d.check("recovered", d.rep.Recovered == 2 && d.st.Health() == store.Healthy,
		fmt.Sprintf("health %q after the arc; %d of 2 readback keys served from disk", d.st.HealthState(), d.rep.Recovered))
	return d.finish(), nil
}

// runFull is the ENOSPC arc: the byte budget pins the disk at exactly its
// current size, so every new append is rejected while every stored record
// stays readable — read-only serving, with exact drop accounting (no
// randomness is drawn at all).
func (d *diskRun) runFull() (*Report, error) {
	sc := d.sc

	// ---- Full: freeze the budget at the bytes already written. Fresh
	// bodies compute and their appends bounce; interleaved warm replays
	// must keep coming back from disk the whole time.
	d.ffs.SetENOSPCAfter(d.ffs.Written())
	full := PhaseReport{Name: "full", Requests: 2 * sc.Storm, Errors: map[string]int{}}
	readOnlyServed := 0
	for i, b := range d.stormBodies {
		d.expect(&full, b, d.goldens[sc.Warm+i], fmt.Sprintf("full fresh %d", i), "miss")
		if cache := d.expect(&full, d.warmBodies[i%sc.Warm], d.goldens[i%sc.Warm], fmt.Sprintf("full warm %d", i), "disk"); cache == "disk" {
			readOnlyServed++
		}
	}
	d.rep.Phases = append(d.rep.Phases, full)
	if err := d.endPhase(); err != nil {
		return nil, fmt.Errorf("chaos: full drain: %w", err)
	}
	fullCounters := d.lastCounters()
	degradedState := d.st.HealthState()

	// ---- Expand: lift the budget. Fresh bodies drive the write-probe
	// ladder; the first admitted append succeeds and recovers the tier.
	d.ffs.SetENOSPCAfter(0)
	d.startPhase()
	expand := PhaseReport{Name: "expand", Requests: sc.Resume, Errors: map[string]int{}}
	for i, b := range d.resumeBodies {
		d.expect(&expand, b, d.goldens[sc.Warm+sc.Storm+i], fmt.Sprintf("expand fresh %d", i), "miss")
	}
	d.rep.Phases = append(d.rep.Phases, expand)
	if err := d.endPhase(); err != nil {
		return nil, fmt.Errorf("chaos: expand drain: %w", err)
	}
	expandCounters := d.lastCounters()

	if err := d.readback(); err != nil {
		return nil, err
	}

	faults := d.ffs.Counts()
	fullErrs := fullCounters["serve.disk_errors"]
	fullDrops := fullCounters["serve.disk_write_drops"]
	d.check("responses", len(d.violations) == 0, responsesDetail(d.violations))
	d.check("warm_persisted", d.warmWrites == int64(sc.Warm),
		fmt.Sprintf("%d of %d warm bodies durable before the disk filled", d.warmWrites, sc.Warm))
	d.check("read_only_served", readOnlyServed == sc.Storm && fullCounters["serve.disk_skipped"] == 0,
		fmt.Sprintf("%d of %d warm replays served from disk while full; 0 consults skipped (read-only, never offline)",
			readOnlyServed, sc.Storm))
	// The full phase is writer-serial and draws no randomness, so the split
	// is exact: the first append trips ENOSPC and degrades the tier, then
	// only every ProbeAfter-th write probes (and bounces) while the rest
	// drop without touching the disk.
	d.check("enospc_accounting",
		fullCounters["serve.disk_writes"] == 0 && fullErrs+fullDrops == int64(sc.Storm) &&
			faults.ENOSPCs == fullErrs && degradedState == "degraded",
		fmt.Sprintf("%d ENOSPC probes + %d gated drops account for all %d full-phase bodies; 0 appended; health %q at budget lift",
			fullErrs, fullDrops, sc.Storm, degradedState))
	decided := expandCounters["serve.disk_writes"] + expandCounters["serve.disk_write_drops"]
	d.check("expanded",
		decided == int64(sc.Resume) && expandCounters["serve.disk_writes"] >= 1 && expandCounters["serve.disk_errors"] == 0,
		fmt.Sprintf("%d appended + %d dropped on the probe ladder account for all %d post-expand bodies",
			expandCounters["serve.disk_writes"], expandCounters["serve.disk_write_drops"], sc.Resume))
	d.check("recovered", d.rep.Recovered == 2 && d.st.Health() == store.Healthy,
		fmt.Sprintf("health %q after the arc; %d of 2 readback keys served from disk", d.st.HealthState(), d.rep.Recovered))
	return d.finish(), nil
}

// BuiltinDisk returns the stock disk scenarios. Names are stable: scripts
// and selfchecks refer to them.
func BuiltinDisk() []DiskScenario {
	return []DiskScenario{
		{
			Name:        "disk-fault",
			Description: "seeded EIO/short-write storm on the result tier mid-traffic, then repair; responses stay byte-identical throughout and disk hits resume",
			Seed:        53,
			Tasks:       8,
			Machines:    3,
			Warm:        6,
			Storm:       6,
			Rounds:      3,
			Resume:      16,
			Heuristic:   "min-min",
			FaultSpec:   "seed=53,readerr=0.45,writeerr=0.35,shortwrite=0.25",
			ProbeAfter:  4,
		},
		{
			Name:        "disk-full",
			Description: "ENOSPC pins the result tier read-only: stored bodies keep serving from disk, new writes drop with exact accounting, and lifting the budget recovers",
			Seed:        59,
			Tasks:       8,
			Machines:    3,
			Warm:        5,
			Storm:       7,
			Resume:      9,
			Heuristic:   "min-min",
			DiskFull:    true,
			ProbeAfter:  4,
		},
	}
}

// DiskByName returns the builtin disk scenario with that name.
func DiskByName(name string) (DiskScenario, error) {
	var names []string
	for _, sc := range BuiltinDisk() {
		if sc.Name == name {
			return sc, nil
		}
		names = append(names, sc.Name)
	}
	return DiskScenario{}, fmt.Errorf("chaos: unknown disk scenario %q (available: %s)", name, strings.Join(names, ", "))
}

package chaos

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/store"
)

// disk is a serve stack whose result tier sits on a FaultFS: a warm phase
// persists the Distinct bodies on a healthy disk, a storm phase turns on
// seeded I/O faults (or exhausts an ENOSPC byte budget) under live
// traffic, a resume phase repairs the disk and drives the request-counted
// probe ladder back to Healthy, and a readback lifetime proves the tier
// survived. Graceful degradation is the verdict: every response in every
// phase is byte-identical to a fault-free singleton's, zero 5xx are
// attributable to the disk tier, and the health machine ends Healthy.
//
// Determinism: request-path reads and serve-side gating are strictly serial
// here, and offline-ness is reader-exclusive (writers only move the machine
// between Healthy and Degraded), so the reader-side decision stream — cache
// headers, skipped consults, injected read errors, offline intervals —
// replays exactly from the scenario seed. The report quotes only
// replay-exact numbers. Write-behind appends race the request loop in the
// fault storm, so their per-outcome split is deliberately absent from that
// report (only interleaving-free sums appear); the disk-full arc draws no
// randomness at all and accounts for every rejected write exactly.
//
// The LRU is disabled outright (CacheEntries -1) so every request exercises
// the disk tier — the scenario is about the disk path, not memory hits.
type disk struct {
	r   *run
	st  *store.Store
	ffs *store.FaultFS
	lt  lifetime
	// regs holds every lifetime's registry, for the no_disk_5xx sum.
	regs       []*obs.Metrics
	warmWrites int64
}

// up opens one store, once, over a FaultFS that starts quiet. The
// fingerprint index keeps absent-key lookups off the disk, so fresh bodies
// never consume a read draw — load-bearing for replay.
func (d *disk) up() error {
	dir, err := d.r.tempStoreDir()
	if err != nil {
		return err
	}
	var spec store.FaultSpec
	if !d.r.sc.DiskFull {
		spec, _ = store.ParseFaultSpec(d.r.sc.FaultSpec) // validated
		spec.Seed = d.r.sc.Seed
	}
	d.ffs = store.NewFaultFS(nil, spec)
	d.ffs.SetEnabled(false)
	if d.st, err = store.Open(dir, store.Options{FS: d.ffs, ProbeAfter: d.r.sc.ProbeAfter}); err != nil {
		return fmt.Errorf("chaos: open store: %w", err)
	}
	d.r.atExit = append(d.r.atExit, func() { d.st.Close() })
	return nil
}

// start begins a fresh server lifetime over the shared store.
func (d *disk) start() {
	d.lt = newLifetime(d.st, -1)
	d.regs = append(d.regs, d.lt.reg)
}

// expect posts bodies[k] to the current lifetime.
func (d *disk) expect(pr *PhaseReport, label string, k int, want ...string) string {
	cache, _ := d.r.expect(d.lt.srv, pr, label, k, want...)
	return cache
}

func (d *disk) drive() error {
	r, sc := d.r, d.r.sc
	// Warm: persist the workload on a healthy disk, then prove a fresh
	// lifetime serves it from disk. The second lifetime rolls into the
	// storm — same server, same registry.
	d.start()
	warm := newPhase("warm", 2*sc.Distinct)
	for k := range sc.Distinct {
		d.expect(&warm, fmt.Sprintf("warm %d", k), k, "miss")
	}
	if err := d.lt.end("warm"); err != nil {
		return err
	}
	d.warmWrites = countersOf(d.lt.reg)["serve.disk_writes"]
	d.start()
	for k := range sc.Distinct {
		d.expect(&warm, fmt.Sprintf("warm replay %d", k), k, "disk")
	}
	r.rep.Phases = append(r.rep.Phases, warm)

	arc := d.fault
	if sc.DiskFull {
		arc = d.full
	}
	checks, err := arc()
	if err != nil {
		return err
	}

	// Readback: the newest resume body and the oldest warm body must both
	// come back from disk — the tier survived the arc end to end.
	d.start()
	readback := newPhase("readback", 2)
	for _, k := range []int{len(r.bodies) - 1, 0} {
		if d.expect(&readback, fmt.Sprintf("readback %d", k), k, "disk") == "disk" {
			r.rep.Recovered++
		}
	}
	r.rep.Phases = append(r.rep.Phases, readback)
	if err := d.lt.end("readback"); err != nil {
		return err
	}

	checks()
	r.check("recovered", r.rep.Recovered == 2 && d.st.Health() == store.Healthy,
		fmt.Sprintf("health %q after the arc; %d of 2 readback keys served from disk", d.st.HealthState(), r.rep.Recovered))
	var fiveXX int64
	for _, reg := range d.regs {
		fiveXX += countersOf(reg)["serve.responses_5xx"]
	}
	r.check("no_disk_5xx", fiveXX == 0,
		fmt.Sprintf("%d 5xx responses across %d server lifetimes (a sick disk must never surface to a client)", fiveXX, len(d.regs)))
	r.quiesced(d.lt.reg)
	return nil
}

// fault is the I/O-error arc: a seeded read/write/short-write storm knocks
// the tier offline under live traffic; repair plus the request-counted
// probe ladder bring it back to Healthy. It returns the arc's invariants,
// to be checked after the readback.
func (d *disk) fault() (func(), error) {
	r, sc := d.r, d.r.sc
	fresh := sc.Distinct // bodies[fresh:] are storm, then resume bodies

	// Storm: faults on. Warm replays may be served from disk (read
	// survived), recomputed (read failed → fallthrough) or gated (offline
	// between probes) — byte-identical in every case. Fresh bodies always
	// compute; their write-behind appends meet the sick disk off the
	// request path.
	d.ffs.SetEnabled(true)
	storm := newPhase("storm", sc.Rounds*sc.Distinct+sc.Storm)
	diskServed, sawOffline := 0, false
	for round := range sc.Rounds {
		for k := range sc.Distinct {
			if d.expect(&storm, fmt.Sprintf("storm round %d warm %d", round, k), k, "disk", "miss") == "disk" {
				diskServed++
			}
			sawOffline = sawOffline || d.st.Health() == store.Offline
		}
	}
	for i := range sc.Storm {
		d.expect(&storm, fmt.Sprintf("storm fresh %d", i), fresh+i, "miss")
	}
	r.rep.Phases = append(r.rep.Phases, storm)
	if err := d.lt.end("storm"); err != nil {
		return nil, err
	}
	stormCounters := countersOf(d.lt.reg)

	// Resume: disk repaired. Warm replays drive the read-probe ladder
	// (gated consults recompute, the probe lands, disk hits return); fresh
	// bodies drive the write-probe ladder back to Healthy.
	d.ffs.SetEnabled(false)
	d.start()
	resume := newPhase("resume", 2*sc.ProbeAfter+sc.Resume)
	gated, lastWarm := 0, ""
	for i := range 2 * sc.ProbeAfter {
		lastWarm = d.expect(&resume, fmt.Sprintf("resume warm %d", i), i%sc.Distinct, "disk", "miss")
		if lastWarm == "miss" {
			gated++
		}
	}
	if lastWarm != "disk" {
		r.violate("resume: final warm replay cache %q, want disk (the read probe must have fired within a probe window)", lastWarm)
	}
	for i := range sc.Resume {
		d.expect(&resume, fmt.Sprintf("resume fresh %d", i), fresh+sc.Storm+i, "miss")
	}
	r.rep.Phases = append(r.rep.Phases, resume)
	if err := d.lt.end("resume"); err != nil {
		return nil, err
	}
	resumeCounters := countersOf(d.lt.reg)

	return func() {
		stats, counts := d.st.Stats(), d.ffs.Counts()
		skipped := stormCounters["serve.disk_skipped"] + resumeCounters["serve.disk_skipped"]
		r.check("warm_persisted", d.warmWrites == int64(sc.Distinct),
			fmt.Sprintf("%d of %d warm bodies durable before the storm", d.warmWrites, sc.Distinct))
		r.check("injected", counts.ReadErrs >= 1,
			fmt.Sprintf("%d injected read errors on the serial request path (replay-exact)", counts.ReadErrs))
		r.check("offline_gating", sawOffline && skipped >= 1,
			fmt.Sprintf("store went offline %d time(s); %d consults skipped while offline; %d of %d storm replays still served from disk",
				stats.Offlines, skipped, diskServed, sc.Rounds*sc.Distinct))
		// Only the sum is interleaving-free: how many writes were appended
		// vs dropped depends on where the storm drain left the health
		// machine.
		decided := resumeCounters["serve.disk_writes"] + resumeCounters["serve.disk_write_drops"]
		r.check("resume_accounting",
			decided == int64(gated+sc.Resume) && resumeCounters["serve.disk_errors"] == 0,
			fmt.Sprintf("%d write-behind decisions for %d gated recomputes + %d fresh bodies; every computed body written or dropped, never errored",
				decided, gated, sc.Resume))
	}, nil
}

// full is the ENOSPC arc: the byte budget pins the disk at exactly its
// current size, so every new append is rejected while every stored record
// stays readable — read-only serving, with exact drop accounting (no
// randomness is drawn at all).
func (d *disk) full() (func(), error) {
	r, sc := d.r, d.r.sc
	fresh := sc.Distinct

	// Full: freeze the budget at the bytes already written. Fresh bodies
	// compute and their appends bounce; interleaved warm replays must keep
	// coming back from disk the whole time.
	d.ffs.SetENOSPCAfter(d.ffs.Written())
	full := newPhase("full", 2*sc.Storm)
	readOnlyServed := 0
	for i := range sc.Storm {
		d.expect(&full, fmt.Sprintf("full fresh %d", i), fresh+i, "miss")
		if d.expect(&full, fmt.Sprintf("full warm %d", i), i%sc.Distinct, "disk") == "disk" {
			readOnlyServed++
		}
	}
	r.rep.Phases = append(r.rep.Phases, full)
	if err := d.lt.end("full"); err != nil {
		return nil, err
	}
	fullCounters := countersOf(d.lt.reg)
	degradedState := d.st.HealthState()

	// Expand: lift the budget. Fresh bodies drive the write-probe ladder;
	// the first admitted append succeeds and recovers the tier.
	d.ffs.SetENOSPCAfter(0)
	d.start()
	expand := newPhase("expand", sc.Resume)
	for i := range sc.Resume {
		d.expect(&expand, fmt.Sprintf("expand fresh %d", i), fresh+sc.Storm+i, "miss")
	}
	r.rep.Phases = append(r.rep.Phases, expand)
	if err := d.lt.end("expand"); err != nil {
		return nil, err
	}
	expandCounters := countersOf(d.lt.reg)

	return func() {
		fullErrs, fullDrops := fullCounters["serve.disk_errors"], fullCounters["serve.disk_write_drops"]
		r.check("warm_persisted", d.warmWrites == int64(sc.Distinct),
			fmt.Sprintf("%d of %d warm bodies durable before the disk filled", d.warmWrites, sc.Distinct))
		r.check("read_only_served", readOnlyServed == sc.Storm && fullCounters["serve.disk_skipped"] == 0,
			fmt.Sprintf("%d of %d warm replays served from disk while full; 0 consults skipped (read-only, never offline)",
				readOnlyServed, sc.Storm))
		// The full phase is writer-serial and draws no randomness, so the
		// split is exact: the first append trips ENOSPC and degrades the
		// tier, then only every ProbeAfter-th write probes (and bounces)
		// while the rest drop without touching the disk.
		r.check("enospc_accounting",
			fullCounters["serve.disk_writes"] == 0 && fullErrs+fullDrops == int64(sc.Storm) &&
				d.ffs.Counts().ENOSPCs == fullErrs && degradedState == "degraded",
			fmt.Sprintf("%d ENOSPC probes + %d gated drops account for all %d full-phase bodies; 0 appended; health %q at budget lift",
				fullErrs, fullDrops, sc.Storm, degradedState))
		decided := expandCounters["serve.disk_writes"] + expandCounters["serve.disk_write_drops"]
		r.check("expanded",
			decided == int64(sc.Resume) && expandCounters["serve.disk_writes"] >= 1 && expandCounters["serve.disk_errors"] == 0,
			fmt.Sprintf("%d appended + %d dropped on the probe ladder account for all %d post-expand bodies",
				expandCounters["serve.disk_writes"], expandCounters["serve.disk_write_drops"], sc.Resume))
	}, nil
}

package chaos

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// builtinNames is every stock scenario, of every topology; scripts,
// selfchecks and the schedchaos golden refer to them.
var builtinNames = []string{
	"storm", "truncate-flood", "batch-storm", "breaker-trip", "panic-isolation",
	"backend-kill", "backend-rejoin", "split-routing-storm",
	"restart-recovery", "disk-fault", "disk-full",
}

// mustPass fails the test with the first violated invariant (and the whole
// report) unless rep passed.
func mustPass(t *testing.T, rep *Report) {
	t.Helper()
	if err := rep.Err(); err != nil || !rep.Pass {
		b, _ := rep.JSON()
		t.Fatalf("scenario failed (%v):\n%s", err, b)
	}
}

// forEachBuiltin runs check once per builtin scenario of one topology.
// Every check below is one table over Builtin(); its Test* entry points
// partition that table by topology, so each scenario runs exactly once per
// check and the per-topology test IDs stay stable.
func forEachBuiltin(t *testing.T, topo string, check func(*testing.T, Scenario)) {
	ran := 0
	for _, sc := range Builtin() {
		if sc.Topology() == topo {
			ran++
			t.Run(sc.Name, func(t *testing.T) { check(t, sc) })
		}
	}
	if ran == 0 {
		t.Fatalf("no %s builtins", topo)
	}
}

// passes replays a scenario and requires a clean verdict: all invariants
// ok, report marked Pass.
func passes(t *testing.T, sc Scenario) {
	rep, err := Run(sc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	mustPass(t, rep)
}

// deterministic pins the harness's core promise: the same scenario and
// seed produce a byte-identical verdict report — even though the store
// topologies use a fresh temp directory per run.
func deterministic(t *testing.T, sc Scenario) {
	var runs [][]byte
	for i := 0; i < 2; i++ {
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, b)
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("reports differ across identical runs:\n%s\nvs\n%s", runs[0], runs[1])
	}
}

func TestBuiltinScenariosPass(t *testing.T) { forEachBuiltin(t, "single", passes) }
func TestClusterScenariosPass(t *testing.T) { forEachBuiltin(t, "cluster", passes) }
func TestRestartScenariosPass(t *testing.T) { forEachBuiltin(t, "restart", passes) }
func TestDiskScenariosPass(t *testing.T)    { forEachBuiltin(t, "disk", passes) }

func TestReportDeterministic(t *testing.T)        { forEachBuiltin(t, "single", deterministic) }
func TestClusterReportDeterministic(t *testing.T) { forEachBuiltin(t, "cluster", deterministic) }
func TestRestartReportDeterministic(t *testing.T) { forEachBuiltin(t, "restart", deterministic) }
func TestDiskReportDeterministic(t *testing.T)    { forEachBuiltin(t, "disk", deterministic) }

// TestSpanConservationAcrossSeeds replays every builtin scenario under
// several seed overrides and requires the whole verdict to hold for each —
// including, where the topology traces, span_conservation: one well-formed
// span tree per request on both sides of the wire, whatever the fault
// schedule draws.
func TestSpanConservationAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay is the long leg of the chaos suite")
	}
	for _, seed := range []uint64{101, 202, 303} {
		for _, sc := range Builtin() {
			sc.Seed = seed
			t.Run(fmt.Sprintf("%s/seed=%d", sc.Name, seed), func(t *testing.T) {
				rep, err := Run(sc)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				found := false
				for _, inv := range rep.Invariants {
					found = found || inv.Name == "span_conservation"
				}
				if traced := sc.Topology() == "single" || sc.Topology() == "cluster"; found != traced {
					t.Fatalf("%s report has span_conservation=%v, want %v", sc.Topology(), found, traced)
				}
				mustPass(t, rep)
			})
		}
	}
}

// TestByName pins the single registry: every builtin resolves by name, the
// names are unique, and an unknown name's error lists all of them, sorted.
func TestByName(t *testing.T) {
	var got []string
	for _, sc := range Builtin() {
		got = append(got, sc.Name)
		if topo := sc.Topology(); topo != "single" && topo != "cluster" && topo != "restart" && topo != "disk" {
			t.Fatalf("%s has topology %q", sc.Name, topo)
		}
		if found, err := ByName(sc.Name); err != nil || found.Name != sc.Name {
			t.Fatalf("ByName(%s) = %s, %v", sc.Name, found.Name, err)
		}
	}
	if strings.Join(got, ",") != strings.Join(builtinNames, ",") {
		t.Fatalf("Builtin() = %v, want %v", got, builtinNames)
	}
	sorted := append([]string(nil), builtinNames...)
	sort.Strings(sorted)
	_, err := ByName("nope")
	if err == nil || !strings.Contains(err.Error(), "(available: "+strings.Join(sorted, ", ")+")") {
		t.Fatalf("ByName(nope) error %v, want every builtin listed, sorted", err)
	}
}

// byNameTopology requires each name to resolve through the one registry to
// a scenario of topology topo, and an unknown name to be refused.
func byNameTopology(t *testing.T, topo string, names ...string) {
	t.Helper()
	for _, name := range names {
		sc, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sc.Topology() != topo {
			t.Fatalf("%s has topology %q, want %q", name, sc.Topology(), topo)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatalf("unknown %s scenario accepted", topo)
	}
}

func TestClusterByNameUnknown(t *testing.T) {
	byNameTopology(t, "cluster", "backend-kill", "backend-rejoin", "split-routing-storm")
}
func TestRestartByNameUnknown(t *testing.T) { byNameTopology(t, "restart", "restart-recovery") }
func TestDiskByName(t *testing.T)           { byNameTopology(t, "disk", "disk-fault", "disk-full") }

// validationBases are minimal valid scenarios, one per topology.
var validationBases = map[string]func() Scenario{
	"single": func() Scenario {
		return Scenario{Name: "x", Tasks: 1, Machines: 1, Distinct: 1, Phases: []Phase{{Name: "p", Requests: 1}}}
	},
	"cluster": func() Scenario {
		return Scenario{Name: "t", Seed: 1, Tasks: 4, Machines: 2, Distinct: 2, Backends: 2,
			Phases: []Phase{{Name: "p", Requests: 1}}}
	},
	"restart": func() Scenario {
		return Scenario{Name: "t", Seed: 1, Tasks: 4, Machines: 2, Distinct: 2, TornTailBytes: 3}
	},
	"disk": func() Scenario {
		return Scenario{Name: "t", Seed: 1, Tasks: 4, Machines: 2, Distinct: 2,
			Storm: 2, Rounds: 1, Resume: 3, FaultSpec: "readerr=0.5", ProbeAfter: 2}
	},
}

// validationCases is the one table of invalid scenarios: a mutation of its
// topology's base that validation must reject.
var validationCases = []struct {
	topo, name string
	mutate     func(*Scenario)
}{
	{"single", "empty", func(sc *Scenario) { *sc = Scenario{} }},
	{"single", "panic seed", func(sc *Scenario) { sc.Seed = PanicSeed }},
	{"single", "no phases", func(sc *Scenario) { sc.Phases = nil }},
	{"single", "zero requests", func(sc *Scenario) { sc.Phases[0].Requests = 0 }},
	{"single", "pinned seed", func(sc *Scenario) { sc.Phases[0].Faults = "seed=3,drop=0.1" }},
	{"single", "negative cadence", func(sc *Scenario) { sc.Phases[0].BatchEvery = -1 }},
	{"single", "kill without backends", func(sc *Scenario) { sc.Phases[0].Kill = []int{0} }},

	{"cluster", "no name", func(sc *Scenario) { sc.Name = "" }},
	{"cluster", "one backend", func(sc *Scenario) { sc.Backends = 1 }},
	{"cluster", "no phases", func(sc *Scenario) { sc.Phases = nil }},
	{"cluster", "zero requests", func(sc *Scenario) { sc.Phases[0].Requests = 0 }},
	{"cluster", "pinned seed", func(sc *Scenario) { sc.Phases[0].Faults = "seed=1,drop=0.5" }},
	{"cluster", "kill out of range", func(sc *Scenario) { sc.Phases[0].Kill = []int{2} }},
	{"cluster", "revive out of range", func(sc *Scenario) { sc.Phases[0].Revive = []int{-1} }},
	{"cluster", "panics", func(sc *Scenario) { sc.Phases[0].PanicEvery = 2 }},
	{"cluster", "breaker threshold", func(sc *Scenario) { sc.Threshold = 3 }},

	{"restart", "no name", func(sc *Scenario) { sc.Name = "" }},
	{"restart", "panic seed", func(sc *Scenario) { sc.Seed = PanicSeed }},
	{"restart", "zero distinct", func(sc *Scenario) { sc.Distinct = 0 }},
	{"restart", "negative torn tail", func(sc *Scenario) { sc.TornTailBytes = -1 }},
	{"restart", "with phases", func(sc *Scenario) { sc.Phases = []Phase{{Name: "p", Requests: 1}} }},

	{"disk", "no name", func(sc *Scenario) { sc.Name = "" }},
	{"disk", "panic seed", func(sc *Scenario) { sc.Seed = PanicSeed }},
	{"disk", "zero warm", func(sc *Scenario) { sc.Distinct = 0 }},
	{"disk", "zero storm", func(sc *Scenario) { sc.Storm = 0 }},
	{"disk", "zero probe cadence", func(sc *Scenario) { sc.ProbeAfter = 0 }},
	{"disk", "resume too short for probe ladder", func(sc *Scenario) { sc.Resume = sc.ProbeAfter }},
	{"disk", "bad fault spec", func(sc *Scenario) { sc.FaultSpec = "bogus=1" }},
	{"disk", "no read faults", func(sc *Scenario) { sc.FaultSpec = "writeerr=0.5" }},
	{"disk", "pinned fault seed", func(sc *Scenario) { sc.FaultSpec = "seed=1,readerr=0.5" }},
	{"disk", "zero storm rounds", func(sc *Scenario) { sc.Rounds = 0 }},
	{"disk", "disk-full with fault spec", func(sc *Scenario) { sc.DiskFull = true }},
	{"disk", "with backends", func(sc *Scenario) { sc.Backends = 2 }},
	{"disk", "with torn tail", func(sc *Scenario) { sc.TornTailBytes = 3 }},
	{"disk", "with retries", func(sc *Scenario) { sc.MaxRetries = 1 }},
}

// validates runs the table's cases for one topology, after checking its
// base is valid and reads as that topology.
func validates(t *testing.T, topo string) {
	t.Run("valid", func(t *testing.T) {
		sc := validationBases[topo]()
		if got := sc.Topology(); got != topo {
			t.Fatalf("Topology() = %q, want %q", got, topo)
		}
		if err := sc.validate(); err != nil {
			t.Fatalf("valid %s scenario rejected: %v", topo, err)
		}
	})
	for _, tc := range validationCases {
		if tc.topo != topo {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			sc := validationBases[topo]()
			tc.mutate(&sc)
			if _, err := Run(sc); err == nil {
				t.Fatal("invalid scenario accepted")
			}
		})
	}
}

func TestScenarioValidation(t *testing.T)        { validates(t, "single") }
func TestClusterScenarioValidation(t *testing.T) { validates(t, "cluster") }
func TestRestartScenarioValidation(t *testing.T) { validates(t, "restart") }

func TestDiskScenarioValidation(t *testing.T) {
	validates(t, "disk")
	t.Run("valid disk-full", func(t *testing.T) {
		sc := validationBases["disk"]()
		sc.DiskFull = true
		sc.FaultSpec = ""
		sc.Rounds = 0
		if err := sc.validate(); err != nil {
			t.Fatalf("valid disk-full scenario rejected: %v", err)
		}
	})
}

// TestDiskFaultReseeds pins that the scenario seed drives the disk fault
// storm, not just the workload: across seed overrides disk-fault keeps
// passing while the injected fault stream itself changes.
func TestDiskFaultReseeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed replay is the long leg of the chaos suite")
	}
	sc, err := ByName("disk-fault")
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]bool{}
	for _, seed := range []uint64{101, 202, 303, 404, 505} {
		sc.Seed = seed
		rep, err := Run(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		mustPass(t, rep)
		for _, inv := range rep.Invariants {
			if inv.Name == "injected" {
				streams[inv.Detail] = true
			}
		}
	}
	if len(streams) < 2 {
		t.Fatalf("every seed replayed the same fault stream: %v", streams)
	}
}

// TestFaultProbabilityChangesReport pins sensitivity: flipping an injected
// fault probability changes the report (deterministically — covered by the
// determinism test above).
func TestFaultProbabilityChangesReport(t *testing.T) {
	sc, err := ByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Phases[2].Faults = "reject=0.9:503:1"
	bumped, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := base.JSON()
	b, _ := bumped.JSON()
	if bytes.Equal(a, b) {
		t.Fatal("report unchanged after flipping reject probability 0.5 -> 0.9")
	}
	if !bumped.Pass {
		t.Fatal("bumped scenario should still pass (more rejections, same invariants)")
	}
}

// TestBreakerTripScenarioObservesTransitions pins that the breaker-trip
// scenario actually exercises the breaker (a scenario that never trips it
// would vacuously pass breaker_legal).
func TestBreakerTripScenarioObservesTransitions(t *testing.T) {
	sc, err := ByName("breaker-trip")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.BreakerTransitions) == 0 {
		t.Fatal("breaker-trip scenario produced no breaker transitions")
	}
	if rep.BreakerTransitions[0] != "closed->open" {
		t.Fatalf("first transition %q, want closed->open", rep.BreakerTransitions[0])
	}
	if last := rep.BreakerTransitions[len(rep.BreakerTransitions)-1]; last != "half-open->closed" {
		t.Fatalf("last transition %q, want half-open->closed", last)
	}
}

// TestPanicScenarioAccountsPanics pins that panic-isolation schedules real
// panics and the serve layer both counts and survives them.
func TestPanicScenarioAccountsPanics(t *testing.T) {
	sc, err := ByName("panic-isolation")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Panics == 0 {
		t.Fatal("panic-isolation scenario recorded no panics")
	}
	found := false
	for _, ph := range rep.Phases {
		if ph.Errors["500:panic"] > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no 500:panic envelopes observed: %+v", rep.Phases)
	}
	if !rep.Pass {
		t.Fatal("panic-isolation should pass")
	}
}

// TestReportErr pins the pass/fail helper: nil on a clean report, the
// first failed invariant otherwise.
func TestReportErr(t *testing.T) {
	rep := &Report{Invariants: []InvariantResult{{Name: "a", OK: true}, {Name: "b", Detail: "x"}, {Name: "c", Detail: "y"}}}
	if err := rep.Err(); err == nil || err.Error() != "invariant b violated: x" {
		t.Fatalf("Err() = %v, want invariant b violated: x", err)
	}
	rep.Invariants = rep.Invariants[:1]
	if err := rep.Err(); err != nil {
		t.Fatalf("Err() = %v on a clean report", err)
	}
}

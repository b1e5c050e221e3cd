package heuristics

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/etc"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// inst builds a zero-ready instance from literal rows.
func inst(t *testing.T, vs [][]float64) *sched.Instance {
	t.Helper()
	in, err := sched.NewInstance(etc.MustNew(vs), nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// instReady builds an instance with explicit ready times.
func instReady(t *testing.T, vs [][]float64, ready []float64) *sched.Instance {
	t.Helper()
	in, err := sched.NewInstance(etc.MustNew(vs), ready)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func assertAssign(t *testing.T, got sched.Mapping, want []int) {
	t.Helper()
	if len(got.Assign) != len(want) {
		t.Fatalf("assign = %v, want %v", got.Assign, want)
	}
	for i, w := range want {
		if got.Assign[i] != w {
			t.Fatalf("assign = %v, want %v", got.Assign, want)
		}
	}
}

// allHeuristics returns one instance of every registered heuristic.
func allHeuristics(t *testing.T) []Heuristic {
	t.Helper()
	var hs []Heuristic
	for _, name := range Names() {
		h, err := ByName(name, 12345)
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return hs
}

func TestMinIndices(t *testing.T) {
	got := minIndices([]float64{3, 1, 1 + Epsilon/2, 2})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("minIndices = %v, want [1 2]", got)
	}
	if minIndices(nil) != nil {
		t.Fatal("minIndices(nil) != nil")
	}
}

func TestMaxIndices(t *testing.T) {
	got := maxIndices([]float64{3, 1, 3, 2})
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("maxIndices = %v, want [0 2]", got)
	}
}

func TestOLBIgnoresETC(t *testing.T) {
	// OLB sends tasks to the earliest-ready machine even when slow there.
	in := inst(t, [][]float64{{100, 1}, {100, 1}})
	mp, err := (OLB{}).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	// Machine 0 is ready first (tie at 0, broken to index 0): t0 -> m0,
	// then m1 is ready at 0 < 100: t1 -> m1.
	assertAssign(t, mp, []int{0, 1})
}

func TestOLBWithReadyTimes(t *testing.T) {
	in := instReady(t, [][]float64{{5, 5}}, []float64{10, 3})
	mp, _ := (OLB{}).Map(in, tiebreak.First{})
	assertAssign(t, mp, []int{1})
}

func TestMETPicksMinimumExecution(t *testing.T) {
	in := inst(t, [][]float64{{5, 2, 9}, {1, 8, 8}, {7, 7, 3}})
	mp, err := (MET{}).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	assertAssign(t, mp, []int{1, 0, 2})
}

func TestMETIgnoresLoad(t *testing.T) {
	// All tasks pile onto the one fast machine.
	in := inst(t, [][]float64{{1, 9}, {1, 9}, {1, 9}})
	mp, _ := (MET{}).Map(in, tiebreak.First{})
	assertAssign(t, mp, []int{0, 0, 0})
}

func TestMETTieUsesPolicy(t *testing.T) {
	in := inst(t, [][]float64{{4, 4, 9}})
	mpF, _ := (MET{}).Map(in, tiebreak.First{})
	mpL, _ := (MET{}).Map(in, tiebreak.Last{})
	assertAssign(t, mpF, []int{0})
	assertAssign(t, mpL, []int{1})
}

func TestMCTBalances(t *testing.T) {
	// MCT accounts for accumulated ready time.
	in := inst(t, [][]float64{{1, 9}, {1, 9}, {4, 5}})
	mp, _ := (MCT{}).Map(in, tiebreak.First{})
	// t0 -> m0 (1); t1 -> m0 (2); t2: CT m0 = 2+4 = 6 vs m1 = 5 -> m1.
	assertAssign(t, mp, []int{0, 0, 1})
}

func TestMCTWithInitialReady(t *testing.T) {
	in := instReady(t, [][]float64{{5, 5}}, []float64{4, 0})
	mp, _ := (MCT{}).Map(in, tiebreak.First{})
	assertAssign(t, mp, []int{1})
}

func TestMCTTieUsesPolicy(t *testing.T) {
	in := inst(t, [][]float64{{3, 3}})
	mpF, _ := (MCT{}).Map(in, tiebreak.First{})
	mpL, _ := (MCT{}).Map(in, tiebreak.Last{})
	assertAssign(t, mpF, []int{0})
	assertAssign(t, mpL, []int{1})
}

func TestMinMinHandWorked(t *testing.T) {
	// Classic 3x3: Min-Min schedules the globally cheapest pairs first.
	in := inst(t, [][]float64{
		{2, 5, 6},
		{3, 1, 4},
		{4, 2, 2},
	})
	mp, err := (MinMin{}).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	// Round 1: min CTs are t0:2(m0) t1:1(m1) t2:2(m1/m2) -> global min 1,
	// commit t1->m1. Round 2: ready=(0,1,0): t0:2(m0), t2:2(m2) tie ->
	// lowest pair key = t0,m0. Round 3: ready=(2,1,0): t2: m1=3, m2=2 -> m2.
	assertAssign(t, mp, []int{0, 1, 2})
}

func TestMinMinPhaseOrderMatters(t *testing.T) {
	// A case where Min-Min differs from MCT-in-list-order.
	in := inst(t, [][]float64{
		{10, 12},
		{1, 2},
	})
	mp, _ := (MinMin{}).Map(in, tiebreak.First{})
	s, _ := sched.Evaluate(in, mp)
	// Min-Min maps t1 first (CT 1 on m0), then t0: m0=11 vs m1=12 -> m0.
	assertAssign(t, mp, []int{0, 0})
	if s.Makespan() != 11 {
		t.Fatalf("makespan = %g, want 11", s.Makespan())
	}
}

func TestMaxMinSchedulesLongTasksFirst(t *testing.T) {
	in := inst(t, [][]float64{
		{8, 9},
		{1, 2},
		{1, 2},
	})
	mp, err := (MaxMin{}).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	// Max-Min commits t0 (largest min CT 8 on m0) first; then t1 (min CT:
	// m0=9, m1=2 -> 2 on m1), t2 (m0=9, m1=4 -> m1).
	assertAssign(t, mp, []int{0, 1, 1})
}

func TestMaxMinVersusMinMin(t *testing.T) {
	// The classic case where Max-Min beats Min-Min: one long task, several
	// short ones. Min-Min delays the long task; Max-Min overlaps it.
	in := inst(t, [][]float64{
		{6, 6},
		{2, 2},
		{2, 2},
		{2, 2},
	})
	mpMin, _ := (MinMin{}).Map(in, tiebreak.First{})
	mpMax, _ := (MaxMin{}).Map(in, tiebreak.First{})
	sMin, _ := sched.Evaluate(in, mpMin)
	sMax, _ := sched.Evaluate(in, mpMax)
	if sMax.Makespan() >= sMin.Makespan() {
		t.Fatalf("Max-Min (%g) should beat Min-Min (%g) here", sMax.Makespan(), sMin.Makespan())
	}
}

func TestDuplexPicksBetter(t *testing.T) {
	in := inst(t, [][]float64{
		{6, 6},
		{2, 2},
		{2, 2},
		{2, 2},
	})
	mp, err := (Duplex{}).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sched.Evaluate(in, mp)
	mpMax, _ := (MaxMin{}).Map(in, tiebreak.First{})
	sMax, _ := sched.Evaluate(in, mpMax)
	if s.Makespan() != sMax.Makespan() {
		t.Fatalf("duplex makespan %g, want the better (max-min) %g", s.Makespan(), sMax.Makespan())
	}
}

func TestSufferageDisplacement(t *testing.T) {
	// t1 suffers more from losing machine 0 than t0 does, so t1 wins it.
	in := inst(t, [][]float64{
		{3, 4, 9},
		{3, 5, 9},
	})
	mp, passes, err := (Sufferage{}).MapTrace(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	assertAssign(t, mp, []int{1, 0})
	if len(passes) != 2 {
		t.Fatalf("want 2 passes, got %d", len(passes))
	}
	// Pass 1: t0 assigned, then displaced by t1.
	d := passes[0].Decisions
	if len(d) != 2 || d[0].Outcome != "assigned" || d[1].Outcome != "displaced" {
		t.Fatalf("pass 1 decisions = %+v", d)
	}
	if d[0].Sufferage != 1 || d[1].Sufferage != 2 {
		t.Fatalf("sufferage values = %g, %g, want 1, 2", d[0].Sufferage, d[1].Sufferage)
	}
}

func TestSufferageRejectsWeakerClaim(t *testing.T) {
	// Reversed: the incumbent has the higher sufferage and keeps the
	// machine; the challenger is rejected and waits for the next pass.
	in := inst(t, [][]float64{
		{3, 5, 9},
		{3, 4, 9},
	})
	mp, passes, err := (Sufferage{}).MapTrace(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	assertAssign(t, mp, []int{0, 1})
	if got := passes[0].Decisions[1].Outcome; got != "rejected" {
		t.Fatalf("second decision outcome = %q, want rejected", got)
	}
}

func TestSufferageEqualSufferageKeepsIncumbent(t *testing.T) {
	// Figure 17 uses strict less-than: on equal sufferage the incumbent
	// stays.
	in := inst(t, [][]float64{
		{3, 5},
		{3, 5},
	})
	mp, _, err := (Sufferage{}).MapTrace(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	// Both have sufferage 2; t0 keeps m0, t1 retries next pass.
	if mp.Assign[0] != 0 {
		t.Fatalf("incumbent displaced: %v", mp.Assign)
	}
}

func TestSufferageSingleMachine(t *testing.T) {
	in := inst(t, [][]float64{{2}, {3}})
	mp, _, err := (Sufferage{}).MapTrace(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	assertAssign(t, mp, []int{0, 0})
}

func TestSufferageValueHelper(t *testing.T) {
	if got := sufferageValue([]float64{4}); got != 0 {
		t.Fatalf("single machine sufferage = %g, want 0", got)
	}
	if got := sufferageValue([]float64{7, 3, 5}); got != 2 {
		t.Fatalf("sufferage = %g, want 2", got)
	}
	if got := sufferageValue([]float64{3, 3, 9}); got != 0 {
		t.Fatalf("tied minimum sufferage = %g, want 0", got)
	}
}

func TestKPBSubsetSize(t *testing.T) {
	k := KPercentBest{Percent: 70}
	if got := k.SubsetSize(3); got != 2 {
		t.Fatalf("SubsetSize(3) = %d, want 2", got)
	}
	if got := k.SubsetSize(2); got != 1 {
		t.Fatalf("SubsetSize(2) = %d, want 1", got)
	}
	if got := (KPercentBest{Percent: 100}).SubsetSize(5); got != 5 {
		t.Fatalf("SubsetSize at 100%% = %d, want 5", got)
	}
	if got := (KPercentBest{Percent: 1}).SubsetSize(5); got != 1 {
		t.Fatalf("SubsetSize floor = %d, want 1", got)
	}
}

func TestKPBDegeneratesToMETAndMCT(t *testing.T) {
	in := inst(t, [][]float64{
		{5, 2, 9},
		{1, 8, 8},
		{7, 7, 3},
		{2, 2, 2},
	})
	// Subset of one machine per task == MET.
	kMET := KPercentBest{Percent: 100.0 / 3}
	mpK, err := kMET.Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	mpMET, _ := (MET{}).Map(in, tiebreak.First{})
	if !mpK.Equal(mpMET) {
		t.Fatalf("KPB at 1/M != MET: %v vs %v", mpK.Assign, mpMET.Assign)
	}
	// Full subset == MCT.
	mpK100, err := (KPercentBest{Percent: 100}).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	mpMCT, _ := (MCT{}).Map(in, tiebreak.First{})
	if !mpK100.Equal(mpMCT) {
		t.Fatalf("KPB at 100%% != MCT: %v vs %v", mpK100.Assign, mpMCT.Assign)
	}
}

func TestKPBRejectsBadPercent(t *testing.T) {
	in := inst(t, [][]float64{{1, 2}})
	for _, p := range []float64{0, -5, 101} {
		if _, err := (KPercentBest{Percent: p}).Map(in, tiebreak.First{}); err == nil {
			t.Errorf("percent %g accepted", p)
		}
	}
}

func TestSWARejectsBadThresholds(t *testing.T) {
	in := inst(t, [][]float64{{1, 2}})
	for _, s := range []SWA{{Low: 0.5, High: 0.4}, {Low: -0.1, High: 0.5}, {Low: 0.2, High: 1.5}} {
		if _, err := s.Map(in, tiebreak.First{}); err == nil {
			t.Errorf("thresholds %+v accepted", s)
		}
	}
}

func TestSWAFirstTaskIsMCT(t *testing.T) {
	// Even when MET would pick differently, the first task uses MCT.
	in := instReady(t, [][]float64{{5, 6}}, []float64{4, 0})
	mp, steps, err := (SWA{Low: 0.3, High: 0.7}).MapTrace(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	assertAssign(t, mp, []int{1}) // CT m0=9 vs m1=6
	if steps[0].Heuristic != "mct" {
		t.Fatalf("first step used %q", steps[0].Heuristic)
	}
}

func TestSWASwitchesToMETWhenBalanced(t *testing.T) {
	// After two tasks the load is perfectly balanced (BI=1 > High), so the
	// third is mapped by MET even though MCT would choose otherwise.
	in := inst(t, [][]float64{
		{4, 9},
		{9, 4},
		{5, 1},
	})
	mp, steps, err := (SWA{Low: 0.3, High: 0.7}).MapTrace(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	if steps[2].Heuristic != "met" {
		t.Fatalf("third step used %q, want met (BI=%g)", steps[2].Heuristic, steps[2].BI)
	}
	if steps[2].BI != 1 {
		t.Fatalf("BI before third task = %g, want 1", steps[2].BI)
	}
	assertAssign(t, mp, []int{0, 1, 1})
}

func TestSWASwitchesBackToMCT(t *testing.T) {
	// Drive BI high (MET), let MET skew the load so BI drops below Low,
	// and verify the switch back to MCT.
	in := inst(t, [][]float64{
		{4, 9},  // mct -> m0, ready (4,0), BI x
		{9, 4},  // BI 0 -> mct -> m1, ready (4,4)
		{5, 1},  // BI 1 -> met -> m1, ready (4,5)
		{9, 1},  // BI 4/5 -> met -> m1, ready (4,6)
		{9, 1},  // BI 4/6 -> met -> m1, ready (4,7)
		{2, 50}, // BI 4/7 < 0.6? no: 0.571 < 0.6 -> mct -> m0
	})
	_, steps, err := (SWA{Low: 0.6, High: 0.7}).MapTrace(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"mct", "mct", "met", "met", "met", "mct"}
	for i, w := range want {
		if steps[i].Heuristic != w {
			t.Fatalf("step %d used %q, want %q (BI=%g)", i, steps[i].Heuristic, w, steps[i].BI)
		}
	}
}

func TestAllHeuristicsProduceValidMappings(t *testing.T) {
	src := rng.New(2024)
	for trial := 0; trial < 5; trial++ {
		m, err := etc.GenerateRange(etc.RangeParams{Tasks: 12, Machines: 4, TaskHet: 100, MachineHet: 10}, src)
		if err != nil {
			t.Fatal(err)
		}
		in, err := sched.NewInstance(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range allHeuristics(t) {
			mp, err := h.Map(in, tiebreak.First{})
			if err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			if err := mp.Validate(in); err != nil {
				t.Fatalf("%s produced invalid mapping: %v", h.Name(), err)
			}
		}
	}
}

func TestAllHeuristicsDeterministicWithFirstPolicy(t *testing.T) {
	m, err := etc.GenerateRange(etc.RangeParams{Tasks: 15, Machines: 5, TaskHet: 100, MachineHet: 10}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	in, _ := sched.NewInstance(m, nil)
	for _, name := range Names() {
		h1, _ := ByName(name, 99)
		h2, _ := ByName(name, 99)
		mp1, err := h1.Map(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		mp2, err := h2.Map(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		if !mp1.Equal(mp2) {
			t.Errorf("%s is not deterministic", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", 0); err == nil {
		t.Fatal("unknown heuristic accepted")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if len(names) != 13 {
		t.Fatalf("registry has %d heuristics, want 13: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

// TestByNameAgreesWithNames pins the one registry table: every name Names
// lists constructs through ByName and Registry, Registry has no other
// names, and an unknown name's error lists exactly Names.
func TestByNameAgreesWithNames(t *testing.T) {
	names := Names()
	reg := Registry(3)
	if len(reg) != len(names) {
		t.Fatalf("Registry has %d names, Names %d", len(reg), len(names))
	}
	for _, name := range names {
		h, err := ByName(name, 3)
		if err != nil || h == nil {
			t.Fatalf("ByName(%q) = %v, %v", name, h, err)
		}
		f, ok := reg[name]
		if !ok {
			t.Fatalf("Registry lacks %q", name)
		}
		if got, want := fmt.Sprintf("%T", f()), fmt.Sprintf("%T", h); got != want {
			t.Errorf("%s: Registry builds %s, ByName %s", name, got, want)
		}
	}
	_, err := ByName("nope", 0)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(names)) {
		t.Fatalf("unknown-name error %v does not list %v", err, names)
	}
}

// TestByNameAllocs guards the serve path, which looks a heuristic up twice
// per computed request: a seedless heuristic costs no allocation.
func TestByNameAllocs(t *testing.T) {
	for _, name := range []string{"olb", "met", "mct", "min-min", "max-min", "duplex", "sufferage", "kpb", "swa"} {
		if got := testing.AllocsPerRun(100, func() {
			if _, err := ByName(name, 1); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("ByName(%q) costs %.0f allocs, want 0", name, got)
		}
	}
}

// TestRegistryNamesAllocateNothing guards the engine, which names its
// heuristic once per trace: naming any registry heuristic, or Seeded over
// one, costs no allocation, and the unformatted names of the registry's
// KPB and SWA are the formatted ones.
func TestRegistryNamesAllocateNothing(t *testing.T) {
	for _, name := range Names() {
		h, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []Heuristic{h, Seeded{Inner: h}} {
			if got := testing.AllocsPerRun(100, func() { _ = h.Name() }); got != 0 {
				t.Errorf("%s: Name costs %.0f allocs, want 0", h.Name(), got)
			}
		}
		if want := "seeded(" + h.Name() + ")"; (Seeded{Inner: h}).Name() != want {
			t.Errorf("Seeded over %s is named %q, want %q", name, Seeded{Inner: h}.Name(), want)
		}
	}
	if got, want := (KPercentBest{Percent: PaperKPercent}).Name(), fmt.Sprintf("kpb-%g", float64(PaperKPercent)); got != want {
		t.Errorf("the registry's KPB is named %q, want %q", got, want)
	}
	if got, want := (SWA{Low: PaperSWALow, High: PaperSWAHigh}).Name(), fmt.Sprintf("swa-%g-%g", PaperSWALow, PaperSWAHigh); got != want {
		t.Errorf("the registry's SWA is named %q, want %q", got, want)
	}
	if got := (Seeded{Inner: KPercentBest{Percent: 50}}).Name(); got != "seeded(kpb-50)" {
		t.Errorf("Seeded over KPB 50 is named %q", got)
	}
}

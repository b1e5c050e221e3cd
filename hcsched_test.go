package hcsched_test

import (
	"reflect"
	"strings"
	"testing"

	hcsched "repro"
)

func TestFacadeEndToEnd(t *testing.T) {
	m := hcsched.MustETC([][]float64{
		{4, 9, 9},
		{9, 2, 2},
		{9, 9, 3},
	})
	in, err := hcsched.NewInstance(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hcsched.NewHeuristic("min-min", 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hcsched.Iterate(in, h, hcsched.DeterministicTies())
	if err != nil {
		t.Fatal(err)
	}
	if tr.FinalMakespan() != 4 {
		t.Fatalf("final makespan = %g, want 4", tr.FinalMakespan())
	}
	if tr.MakespanIncreased() {
		t.Fatal("deterministic Min-Min increased makespan")
	}
	s, err := tr.FinalSchedule()
	if err != nil {
		t.Fatal(err)
	}
	chart := hcsched.RenderGantt(s, hcsched.GanttOptions{Width: 30})
	if !strings.Contains(chart, "m0") {
		t.Fatalf("gantt missing machines:\n%s", chart)
	}
}

func TestFacadeHeuristicsRegistry(t *testing.T) {
	names := hcsched.Heuristics()
	if len(names) != 13 {
		t.Fatalf("Heuristics() = %v", names)
	}
	for _, n := range names {
		if _, err := hcsched.NewHeuristic(n, 1); err != nil {
			t.Errorf("NewHeuristic(%q): %v", n, err)
		}
	}
	if _, err := hcsched.NewHeuristic("bogus", 1); err == nil {
		t.Error("bogus heuristic accepted")
	}
}

func TestFacadeSeededWrapper(t *testing.T) {
	h, _ := hcsched.NewHeuristic("met", 0)
	s := hcsched.Seeded(h)
	if !strings.Contains(s.Name(), "met") {
		t.Fatalf("seeded name = %q", s.Name())
	}
}

// lightest maps every task to the machine with the smallest ready time
// plus ETC, ties to the lowest index: a heuristic written against the
// facade's types alone, as one outside the module would be.
type lightest struct{}

func (lightest) Name() string { return "lightest" }

func (h lightest) Map(in *hcsched.Instance, tb hcsched.TieBreaker) (hcsched.Mapping, error) {
	return h.MapInto(in, tb, nil, nil)
}

func (lightest) MapInto(in *hcsched.Instance, _ hcsched.TieBreaker, _ *hcsched.Scratch, dst []int) (hcsched.Mapping, error) {
	if cap(dst) < in.Tasks() {
		dst = make([]int, in.Tasks())
	}
	mp := hcsched.Mapping{Assign: dst[:in.Tasks()]}
	for t := range mp.Assign {
		best := 0
		for m := 1; m < in.Machines(); m++ {
			if in.Ready(m)+in.ETC().At(t, m) < in.Ready(best)+in.ETC().At(t, best) {
				best = m
			}
		}
		mp.Assign[t] = best
	}
	return mp, nil
}

// TestFacadeExternalHeuristic: a Heuristic implemented outside the module
// runs through the technique, into the engine's own storage.
func TestFacadeExternalHeuristic(t *testing.T) {
	in, err := hcsched.NewInstance(hcsched.MustETC([][]float64{{4, 9, 9}, {9, 2, 2}, {9, 9, 3}}), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := hcsched.Iterate(in, lightest{}, hcsched.DeterministicTies())
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Iterations[0].Assign; !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("original mapping %v, want [0 1 2]", got)
	}
	if tr.Heuristic != "lightest" || tr.FinalMakespan() != 4 {
		t.Fatalf("trace of %q, final makespan %g; want lightest, 4", tr.Heuristic, tr.FinalMakespan())
	}
}

func TestFacadeGenerateETC(t *testing.T) {
	classes := hcsched.WorkloadClasses()
	if len(classes) != 12 {
		t.Fatalf("%d classes", len(classes))
	}
	m, err := hcsched.GenerateETC(classes[0], 10, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tasks() != 10 || m.Machines() != 4 {
		t.Fatalf("shape %dx%d", m.Tasks(), m.Machines())
	}
	m2, _ := hcsched.GenerateETC(classes[0], 10, 4, 7)
	if !m.Equal(m2) {
		t.Fatal("GenerateETC not deterministic per seed")
	}
}

func TestFacadeRandomTiesReproducible(t *testing.T) {
	m, _ := hcsched.GenerateETC(hcsched.WorkloadClass{}, 8, 3, 5)
	in, _ := hcsched.NewInstance(m, nil)
	h, _ := hcsched.NewHeuristic("mct", 0)
	a, err := hcsched.Iterate(in, h, hcsched.RandomTies(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := hcsched.Iterate(in, h, hcsched.RandomTies(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalMakespan() != b.FinalMakespan() {
		t.Fatal("RandomTies with equal seeds diverged")
	}
}

func TestFacadeStudy(t *testing.T) {
	res, err := hcsched.RunStudy(hcsched.StudyConfig{
		HeuristicName: "mct",
		Tasks:         8,
		Machines:      3,
		Trials:        10,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Changed.N != 10 {
		t.Fatalf("trials = %d", res.Changed.N)
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(hcsched.Experiments()) != 13 {
		t.Fatal("experiment registry incomplete")
	}
}

func TestFacadeFindCounterexample(t *testing.T) {
	m, _, ok := hcsched.FindCounterexample("met", false, 4, 3, 20000, 11)
	if !ok {
		t.Fatal("no MET counterexample found")
	}
	if m.Tasks() != 4 || m.Machines() != 3 {
		t.Fatalf("unexpected shape %dx%d", m.Tasks(), m.Machines())
	}
	// The theorems make this search impossible.
	if _, _, ok := hcsched.FindCounterexample("mct", true, 3, 2, 300, 1); ok {
		t.Fatal("deterministic MCT counterexample found, contradicting the theorem")
	}
}

func TestFacadeOutcomeConstants(t *testing.T) {
	if hcsched.Improved.String() != "improved" || hcsched.Worsened.String() != "worsened" ||
		hcsched.Unchanged.String() != "unchanged" {
		t.Fatal("outcome constants mislabeled")
	}
}

func TestFacadeDynamicSimulation(t *testing.T) {
	w, err := hcsched.GeneratePoissonWorkload(hcsched.WorkloadClass{}, 30, 3, 5, 9)
	if err != nil {
		t.Fatal(err)
	}
	imm, err := hcsched.SimulateImmediate(w, hcsched.ImmediateConfig{Rule: hcsched.ImmediateMCT})
	if err != nil {
		t.Fatal(err)
	}
	if imm.Makespan <= 0 || imm.MappingEvents != 30 {
		t.Fatalf("immediate result: makespan=%g events=%d", imm.Makespan, imm.MappingEvents)
	}
	h, _ := hcsched.NewHeuristic("min-min", 0)
	bat, err := hcsched.SimulateBatch(w, hcsched.BatchConfig{Heuristic: h, Interval: 10})
	if err != nil {
		t.Fatal(err)
	}
	if bat.Makespan <= 0 {
		t.Fatal("batch simulation produced no makespan")
	}
}

func TestFacadeIterateWithOptions(t *testing.T) {
	m, _ := hcsched.GenerateETC(hcsched.WorkloadClass{}, 8, 3, 5)
	in, _ := hcsched.NewInstance(m, nil)
	h, _ := hcsched.NewHeuristic("mct", 0)
	tr, err := hcsched.IterateWithOptions(in, h, hcsched.DeterministicTies(),
		hcsched.IterateOptions{MaxIterations: 2, FreezeRule: hcsched.FreezeMakespan})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Iterations) != 2 {
		t.Fatalf("iterations = %d, want 2", len(tr.Iterations))
	}
}

func TestFacadeAnalysisTools(t *testing.T) {
	m := hcsched.MustETC([][]float64{
		{2, 9, 9},
		{9, 2, 9},
		{9, 9, 2},
	})
	in, _ := hcsched.NewInstance(m, nil)
	lb := hcsched.LowerBound(in)
	res, err := hcsched.SolveExact(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Makespan != 2 {
		t.Fatalf("exact = %+v", res)
	}
	if lb > res.Makespan+1e-9 {
		t.Fatalf("lower bound %g above optimum %g", lb, res.Makespan)
	}
	s, err := hcsched.Evaluate(in, res.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	tau := hcsched.RobustnessTau(s, 1.5)
	r, err := hcsched.RobustnessRadius(s, tau)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric <= 0 {
		t.Fatalf("metric = %g, want positive at 50%% slack", r.Metric)
	}
	p, err := hcsched.RobustnessMonteCarlo(s, tau, 0.1, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.95 {
		t.Fatalf("within-tau probability = %g, want near 1", p)
	}
}

func TestFacadeFindCounterexampleUnknownName(t *testing.T) {
	// An unknown heuristic must be rejected up front — (nil, 0, false) —
	// rather than panicking inside the search target.
	m, attempts, ok := hcsched.FindCounterexample("no-such-heuristic", false, 4, 3, 100, 1)
	if ok || m != nil || attempts != 0 {
		t.Fatalf("unknown name: got (%v, %d, %v), want (nil, 0, false)", m, attempts, ok)
	}
}

func TestFacadeObservability(t *testing.T) {
	in, err := hcsched.NewInstance(hcsched.MustETC([][]float64{
		{4, 9, 9},
		{9, 2, 2},
		{9, 9, 3},
	}), nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := hcsched.NewHeuristic("min-min", 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := hcsched.Iterate(in, h, hcsched.DeterministicTies())
	if err != nil {
		t.Fatal(err)
	}

	var events hcsched.EventCollector
	var jsonl strings.Builder
	metrics := hcsched.NewMetrics()
	trace := hcsched.NewTraceWriter(&jsonl)
	observer := hcsched.MultiObserver{&events, trace, hcsched.MetricsObserver(metrics)}
	tr, err := hcsched.IterateObserved(in, h, hcsched.DeterministicTies(), observer)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, tr) {
		t.Fatal("observed trace differs from plain trace")
	}
	if events.Len() == 0 {
		t.Fatal("no events collected")
	}
	if kinds := events.Kinds(); kinds[len(kinds)-1] != "trace_done" {
		t.Fatalf("last event = %q, want trace_done", kinds[len(kinds)-1])
	}
	if !strings.Contains(jsonl.String(), `{"event":"trace_done"`) {
		t.Fatalf("JSONL stream missing trace_done:\n%s", jsonl.String())
	}
	snap := metrics.Snapshot()
	found := false
	for _, c := range snap.Counters {
		if c.Name == "engine.traces" && c.Value == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("engine.traces != 1 in snapshot:\n%s", snap.Text())
	}

	// A nil observer is exactly Iterate.
	viaNil, err := hcsched.IterateObserved(in, h, hcsched.DeterministicTies(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, viaNil) {
		t.Fatal("nil observer changed the result")
	}
}

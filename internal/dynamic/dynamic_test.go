package dynamic

import (
	"math"
	"testing"

	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

func workload(t *testing.T, vs [][]float64, arrivals []float64) Workload {
	t.Helper()
	w := Workload{ETC: etc.MustNew(vs), Arrivals: arrivals}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorkloadValidate(t *testing.T) {
	m := etc.MustNew([][]float64{{1, 2}})
	if err := (Workload{ETC: nil}).Validate(); err == nil {
		t.Error("nil ETC accepted")
	}
	if err := (Workload{ETC: m, Arrivals: []float64{}}).Validate(); err == nil {
		t.Error("arrival count mismatch accepted")
	}
	if err := (Workload{ETC: m, Arrivals: []float64{-1}}).Validate(); err == nil {
		t.Error("negative arrival accepted")
	}
	if err := (Workload{ETC: m, Arrivals: []float64{math.NaN()}}).Validate(); err == nil {
		t.Error("NaN arrival accepted")
	}
}

func TestGeneratePoissonWorkload(t *testing.T) {
	src := rng.New(1)
	w, err := GeneratePoissonWorkload(etc.Class{}, 200, 4, 10, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// Arrivals must be strictly increasing (exponential gaps > 0).
	for i := 1; i < len(w.Arrivals); i++ {
		if w.Arrivals[i] <= w.Arrivals[i-1] {
			t.Fatalf("arrivals not increasing at %d", i)
		}
	}
	// Mean inter-arrival near 10.
	mean := w.Arrivals[len(w.Arrivals)-1] / float64(len(w.Arrivals))
	if mean < 7 || mean > 13 {
		t.Fatalf("mean inter-arrival = %g, want about 10", mean)
	}
	if _, err := GeneratePoissonWorkload(etc.Class{}, 5, 2, 0, src); err == nil {
		t.Error("zero inter-arrival accepted")
	}
}

func TestImmediateMCTHandWorked(t *testing.T) {
	// Two tasks arriving at 0 and 1 on two machines.
	w := workload(t, [][]float64{
		{4, 5},
		{4, 2},
	}, []float64{0, 1})
	res, err := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateMCT})
	if err != nil {
		t.Fatal(err)
	}
	// t0 at time 0: CT m0=4 < m1=5 -> m0, completes 4.
	// t1 at time 1: m0 busy till 4 -> CT 8; m1 free at 1 -> CT 3 -> m1.
	if res.Machine[0] != 0 || res.Machine[1] != 1 {
		t.Fatalf("machines = %v", res.Machine)
	}
	if res.Completion[0] != 4 || res.Completion[1] != 3 {
		t.Fatalf("completions = %v", res.Completion)
	}
	if res.Makespan != 4 {
		t.Fatalf("makespan = %g", res.Makespan)
	}
	if res.MeanResponse != (4-0+3-1)/2.0 {
		t.Fatalf("mean response = %g", res.MeanResponse)
	}
	if res.MappingEvents != 2 {
		t.Fatalf("mapping events = %d", res.MappingEvents)
	}
}

func TestImmediateTaskCannotStartBeforeArrival(t *testing.T) {
	w := workload(t, [][]float64{{1, 1}}, []float64{5})
	res, err := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateMCT})
	if err != nil {
		t.Fatal(err)
	}
	if res.Start[0] != 5 {
		t.Fatalf("start = %g, want 5 (idle machine must wait for arrival)", res.Start[0])
	}
}

func TestImmediateMETIgnoresLoad(t *testing.T) {
	w := workload(t, [][]float64{
		{1, 9},
		{1, 9},
		{1, 9},
	}, []float64{0, 0, 0})
	res, err := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateMET})
	if err != nil {
		t.Fatal(err)
	}
	for t2, m := range res.Machine {
		if m != 0 {
			t.Fatalf("task %d on machine %d, MET must pick 0", t2, m)
		}
	}
	if res.Makespan != 3 {
		t.Fatalf("makespan = %g", res.Makespan)
	}
}

func TestImmediateOLBPicksEarliestAvailable(t *testing.T) {
	w := workload(t, [][]float64{
		{10, 1},
		{10, 1},
	}, []float64{0, 0})
	res, err := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateOLB})
	if err != nil {
		t.Fatal(err)
	}
	// Both machines idle at 0: tie to m0 for t0; then m1 is earliest.
	if res.Machine[0] != 0 || res.Machine[1] != 1 {
		t.Fatalf("machines = %v", res.Machine)
	}
}

func TestImmediateKPBRestrictsSubset(t *testing.T) {
	// KPB 70% on 3 machines: subset of 2 best by ETC; machine 2 (ETC 100)
	// is never used even when it is free.
	w := workload(t, [][]float64{
		{5, 6, 100},
		{5, 6, 100},
		{5, 6, 100},
	}, []float64{0, 0, 0})
	res, err := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateKPB})
	if err != nil {
		t.Fatal(err)
	}
	for t2, m := range res.Machine {
		if m == 2 {
			t.Fatalf("task %d on excluded machine 2", t2)
		}
	}
}

func TestImmediateSWASwitches(t *testing.T) {
	// The first two tasks leave ready times (4, 6): BI = 2/3 > PaperSWAHigh
	// switches to MET for the third task, which takes machine 1 (ETC 2.5,
	// completing at 8.5) though MCT would pick machine 0 (completing at 7).
	w := workload(t, [][]float64{
		{4, 9},
		{9, 6},
		{3, 2.5},
	}, []float64{0, 0, 0})
	res, err := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateSWA})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine[2] != 1 {
		t.Fatalf("SWA did not switch to MET: machines = %v", res.Machine)
	}
}

func TestImmediateErrors(t *testing.T) {
	w := workload(t, [][]float64{{1, 2}}, []float64{0})
	if _, err := SimulateImmediate(w, ImmediateConfig{Rule: "bogus"}); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestBatchMinMinHandWorked(t *testing.T) {
	// Three tasks arrive at 0, 0 and 2.5; interval 2: events at 0 (t0, t1)
	// and 4 (t2).
	w := workload(t, [][]float64{
		{3, 5},
		{4, 2},
		{1, 1},
	}, []float64{0, 0, 2.5})
	res, err := SimulateBatch(w, BatchConfig{Heuristic: heuristics.MinMin{}, Interval: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Event at t=0: Min-Min on {t0, t1}: commits t1->m1 (2), then t0->m0 (3).
	if res.Machine[0] != 0 || res.Machine[1] != 1 {
		t.Fatalf("machines = %v", res.Machine)
	}
	// Event at t=4: t2 ready times max(avail, 4) = (4, 4): completes 5.
	if res.Start[2] != 4 || res.Completion[2] != 5 {
		t.Fatalf("t2 start/completion = %g/%g, want 4/5", res.Start[2], res.Completion[2])
	}
	if res.MappingEvents != 2 {
		t.Fatalf("mapping events = %d, want 2", res.MappingEvents)
	}
}

func TestBatchTasksNeverStartBeforeArrivalOrEvent(t *testing.T) {
	src := rng.New(9)
	w, err := GeneratePoissonWorkload(etc.Class{HighTaskHet: true}, 60, 4, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []heuristics.Heuristic{heuristics.MinMin{}, heuristics.MaxMin{}, heuristics.Sufferage{}} {
		res, err := SimulateBatch(w, BatchConfig{Heuristic: h, Interval: 20})
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		for t2 := range res.Start {
			if res.Start[t2] < w.Arrivals[t2] {
				t.Fatalf("%s: task %d starts at %g before arrival %g",
					h.Name(), t2, res.Start[t2], w.Arrivals[t2])
			}
			if res.Completion[t2] != res.Start[t2]+w.ETC.At(t2, res.Machine[t2]) {
				t.Fatalf("%s: task %d completion arithmetic wrong", h.Name(), t2)
			}
		}
	}
}

func TestBatchNoOverlapPerMachine(t *testing.T) {
	src := rng.New(12)
	w, err := GeneratePoissonWorkload(etc.Class{}, 40, 3, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SimulateBatch(w, BatchConfig{Heuristic: heuristics.Sufferage{}, Interval: 10})
	if err != nil {
		t.Fatal(err)
	}
	assertNoOverlap(t, w, res)
}

func TestImmediateNoOverlapPerMachine(t *testing.T) {
	src := rng.New(13)
	w, err := GeneratePoissonWorkload(etc.Class{}, 40, 3, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, rule := range []ImmediateRule{ImmediateMCT, ImmediateMET, ImmediateOLB, ImmediateKPB, ImmediateSWA} {
		res, err := SimulateImmediate(w, ImmediateConfig{Rule: rule})
		if err != nil {
			t.Fatalf("%s: %v", rule, err)
		}
		assertNoOverlap(t, w, res)
	}
}

// assertNoOverlap checks that tasks on the same machine do not overlap in
// time.
func assertNoOverlap(t *testing.T, w Workload, res *Result) {
	t.Helper()
	type span struct{ start, end float64 }
	byMachine := map[int][]span{}
	for t2 := range res.Start {
		m := res.Machine[t2]
		byMachine[m] = append(byMachine[m], span{res.Start[t2], res.Completion[t2]})
	}
	for m, spans := range byMachine {
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				a, b := spans[i], spans[j]
				if a.start < b.end-1e-9 && b.start < a.end-1e-9 {
					t.Fatalf("machine %d: overlapping tasks [%g,%g] and [%g,%g]",
						m, a.start, a.end, b.start, b.end)
				}
			}
		}
	}
}

func TestBatchErrors(t *testing.T) {
	w := workload(t, [][]float64{{1}}, []float64{0})
	if _, err := SimulateBatch(w, BatchConfig{Heuristic: nil, Interval: 1}); err == nil {
		t.Error("nil heuristic accepted")
	}
	if _, err := SimulateBatch(w, BatchConfig{Heuristic: heuristics.MinMin{}, Interval: 0}); err == nil {
		t.Error("zero interval accepted")
	}
}

func TestBatchIntervalTradeoff(t *testing.T) {
	// Longer batching intervals add waiting: mean response must not improve
	// when the interval grows on the same workload.
	src := rng.New(21)
	w, err := GeneratePoissonWorkload(etc.Class{}, 80, 4, 2, src)
	if err != nil {
		t.Fatal(err)
	}
	short, err := SimulateBatch(w, BatchConfig{Heuristic: heuristics.MinMin{}, Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	long, err := SimulateBatch(w, BatchConfig{Heuristic: heuristics.MinMin{}, Interval: 50})
	if err != nil {
		t.Fatal(err)
	}
	if long.MeanResponse < short.MeanResponse*0.9 {
		t.Fatalf("interval 50 mean response %g unexpectedly beats interval 1's %g by >10%%",
			long.MeanResponse, short.MeanResponse)
	}
	if short.MappingEvents <= long.MappingEvents {
		t.Fatalf("short interval should have more mapping events (%d vs %d)",
			short.MappingEvents, long.MappingEvents)
	}
}

func TestImmediateVsBatchBothComplete(t *testing.T) {
	src := rng.New(30)
	w, err := GeneratePoissonWorkload(etc.Class{HighMachineHet: true}, 50, 4, 4, src)
	if err != nil {
		t.Fatal(err)
	}
	imm, err := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateMCT})
	if err != nil {
		t.Fatal(err)
	}
	bat, err := SimulateBatch(w, BatchConfig{Heuristic: heuristics.MinMin{}, Interval: 5})
	if err != nil {
		t.Fatal(err)
	}
	for t2 := 0; t2 < 50; t2++ {
		if imm.Completion[t2] <= 0 || bat.Completion[t2] <= 0 {
			t.Fatalf("task %d incomplete", t2)
		}
	}
}

func TestImmediateTiesPolicy(t *testing.T) {
	w := workload(t, [][]float64{{3, 3}}, []float64{0})
	resF, _ := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateMCT, Ties: tiebreak.First{}})
	resL, _ := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateMCT, Ties: tiebreak.Last{}})
	if resF.Machine[0] != 0 || resL.Machine[0] != 1 {
		t.Fatalf("tie policy ignored: %v / %v", resF.Machine, resL.Machine)
	}
}

// Cross-validation against the static model: when every task arrives at
// time 0, one batch event sees the whole workload, so batch-mode mapping
// must coincide with the static heuristic's mapping and machine completion
// times.
func TestBatchWithZeroArrivalsEqualsStaticMapping(t *testing.T) {
	src := rng.New(77)
	m, err := etc.GenerateRange(etc.RangeParams{Tasks: 14, Machines: 4, TaskHet: 60, MachineHet: 8}, src)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{ETC: m, Arrivals: make([]float64, m.Tasks())}
	for _, h := range []heuristics.Heuristic{heuristics.MinMin{}, heuristics.MaxMin{}, heuristics.Sufferage{}} {
		res, err := SimulateBatch(w, BatchConfig{Heuristic: h, Interval: 5})
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		in, err := sched.NewInstance(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := h.Map(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		static, err := sched.Evaluate(in, mp)
		if err != nil {
			t.Fatal(err)
		}
		for t2, machine := range res.Machine {
			if machine != mp.Assign[t2] {
				t.Fatalf("%s: task %d on machine %d dynamically, %d statically",
					h.Name(), t2, machine, mp.Assign[t2])
			}
		}
		for machine, finish := range res.MachineFinish {
			if math.Abs(finish-static.Completion[machine]) > 1e-9 {
				t.Fatalf("%s: machine %d finishes at %g dynamically, %g statically",
					h.Name(), machine, finish, static.Completion[machine])
			}
		}
	}
}

// Same cross-validation for immediate-mode MCT: with all arrivals at 0 and
// list-order processing, it is exactly the static MCT heuristic.
func TestImmediateMCTWithZeroArrivalsEqualsStaticMCT(t *testing.T) {
	src := rng.New(78)
	m, err := etc.GenerateRange(etc.RangeParams{Tasks: 12, Machines: 3, TaskHet: 60, MachineHet: 8}, src)
	if err != nil {
		t.Fatal(err)
	}
	w := Workload{ETC: m, Arrivals: make([]float64, m.Tasks())}
	res, err := SimulateImmediate(w, ImmediateConfig{Rule: ImmediateMCT})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := sched.NewInstance(m, nil)
	mp, err := (heuristics.MCT{}).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	for t2 := range res.Machine {
		if res.Machine[t2] != mp.Assign[t2] {
			t.Fatalf("task %d: dynamic %d vs static %d", t2, res.Machine[t2], mp.Assign[t2])
		}
	}
}

package sched

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/etc"
	"repro/internal/rng"
)

func testInstance(t *testing.T, vs [][]float64, ready []float64) *Instance {
	t.Helper()
	in, err := NewInstance(etc.MustNew(vs), ready)
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return in
}

func TestNewInstanceDefaults(t *testing.T) {
	in := testInstance(t, [][]float64{{1, 2}, {3, 4}}, nil)
	if in.Tasks() != 2 || in.Machines() != 2 {
		t.Fatalf("shape %dx%d", in.Tasks(), in.Machines())
	}
	if in.Ready(0) != 0 || in.Ready(1) != 0 {
		t.Fatal("default ready times are not zero")
	}
}

func TestNewInstanceErrors(t *testing.T) {
	m := etc.MustNew([][]float64{{1, 2}})
	if _, err := NewInstance(nil, nil); err == nil {
		t.Error("nil matrix accepted")
	}
	if _, err := NewInstance(m, []float64{1}); err == nil {
		t.Error("wrong-length ready accepted")
	}
	if _, err := NewInstance(m, []float64{1, -1}); err == nil {
		t.Error("negative ready accepted")
	}
	if _, err := NewInstance(m, []float64{1, math.NaN()}); err == nil {
		t.Error("NaN ready accepted")
	}
}

func TestReadyTimesCopied(t *testing.T) {
	ready := []float64{1, 2}
	in := testInstance(t, [][]float64{{1, 2}}, ready)
	ready[0] = 99
	if in.Ready(0) != 1 {
		t.Fatal("instance aliased caller's ready slice")
	}
	rt := in.ReadyTimes()
	rt[1] = 99
	if in.Ready(1) != 2 {
		t.Fatal("ReadyTimes returned a live reference")
	}
}

func TestRestrict(t *testing.T) {
	in := testInstance(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, []float64{10, 20, 30})
	sub, err := in.Restrict([]int{0, 2}, []int{2, 0})
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if sub.Tasks() != 2 || sub.Machines() != 2 {
		t.Fatalf("sub shape %dx%d", sub.Tasks(), sub.Machines())
	}
	if sub.ETC().At(0, 0) != 3 || sub.ETC().At(1, 1) != 7 {
		t.Fatalf("sub ETC wrong: %v", sub.ETC())
	}
	if sub.Ready(0) != 30 || sub.Ready(1) != 10 {
		t.Fatalf("sub ready = %v, want [30 10]", sub.ReadyTimes())
	}
}

func TestRestrictErrors(t *testing.T) {
	in := testInstance(t, [][]float64{{1, 2}}, nil)
	if _, err := in.Restrict(nil, []int{0}); err == nil {
		t.Error("empty task restriction accepted")
	}
	if _, err := in.Restrict([]int{0}, []int{9}); err == nil {
		t.Error("out-of-range machine accepted")
	}
}

func TestRestrictInto(t *testing.T) {
	in := testInstance(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}, []float64{10, 20, 30})
	var dst Instance
	for _, st := range []struct{ tasks, machines []int }{
		{[]int{0, 1, 2}, []int{0, 1, 2}},
		{[]int{0, 2}, []int{0, 2}},
		{[]int{2}, []int{2}},
	} {
		if err := in.RestrictInto(&dst, st.tasks, st.machines); err != nil {
			t.Fatal(err)
		}
		want, err := in.Restrict(st.tasks, st.machines)
		if err != nil {
			t.Fatal(err)
		}
		if !dst.ETC().Equal(want.ETC()) {
			t.Fatalf("RestrictInto(%v, %v) matrix %v, want %v", st.tasks, st.machines, dst.ETC().Values(), want.ETC().Values())
		}
		for j := range st.machines {
			if dst.Ready(j) != want.Ready(j) {
				t.Fatalf("RestrictInto(%v, %v) ready %v, want %v", st.tasks, st.machines, dst.ReadyTimes(), want.ReadyTimes())
			}
		}
	}
	if err := in.RestrictInto(&dst, []int{1, 0}, []int{0}); err == nil {
		t.Fatal("descending tasks: no error")
	}
	if err := in.RestrictInto(in, []int{0}, []int{0}); err == nil {
		t.Fatal("destination == source: no error")
	}
}

// TestCompletionsMatchesEvaluate pins Completions, Makespan and
// MakespanMachine to Evaluate bit for bit on random float instances, where
// summation order shows in the last ulp.
func TestCompletionsMatchesEvaluate(t *testing.T) {
	src := rng.New(321)
	var buf []float64
	for trial := 0; trial < 200; trial++ {
		tasks, machines := 1+src.Intn(30), 1+src.Intn(8)
		m, err := etc.GenerateRange(etc.RangeParams{Tasks: tasks, Machines: machines, TaskHet: 50, MachineHet: 10}, src)
		if err != nil {
			t.Fatal(err)
		}
		ready := make([]float64, machines)
		for i := range ready {
			ready[i] = src.Float64() * 10
		}
		in := MustInstance(m, ready)
		mp := NewMapping(tasks)
		for i := range mp.Assign {
			mp.Assign[i] = src.Intn(machines)
		}
		s, err := Evaluate(in, mp)
		if err != nil {
			t.Fatal(err)
		}
		if buf, err = Completions(in, mp, buf); err != nil {
			t.Fatal(err)
		}
		for j, c := range s.Completion {
			if math.Float64bits(buf[j]) != math.Float64bits(c) {
				t.Fatalf("trial %d: Completions %v, Evaluate %v", trial, buf, s.Completion)
			}
		}
		gm, gms := MakespanMachine(buf)
		wm, wms := s.MakespanMachine()
		if gm != wm || gms != wms || Makespan(buf) != s.Makespan() {
			t.Fatalf("trial %d: makespan (%d, %g, %g), want (%d, %g, %g)", trial, gm, gms, Makespan(buf), wm, wms, s.Makespan())
		}
	}
	in := testInstance(t, [][]float64{{1, 2}}, nil)
	if _, err := Completions(in, Mapping{Assign: []int{2}}, nil); err == nil {
		t.Fatal("invalid mapping: no error")
	}
}

func TestNewMappingUnassigned(t *testing.T) {
	mp := NewMapping(3)
	if mp.Complete() {
		t.Fatal("fresh mapping reports complete")
	}
	for t2, v := range mp.Assign {
		if v != -1 {
			t.Fatalf("task %d initialised to %d, want -1", t2, v)
		}
	}
}

func TestMappingCloneIndependent(t *testing.T) {
	mp := Mapping{Assign: []int{0, 1}}
	cl := mp.Clone()
	cl.Assign[0] = 9
	if mp.Assign[0] != 0 {
		t.Fatal("Clone aliased the original")
	}
}

func TestMappingEqual(t *testing.T) {
	a := Mapping{Assign: []int{0, 1}}
	b := Mapping{Assign: []int{0, 1}}
	c := Mapping{Assign: []int{1, 0}}
	d := Mapping{Assign: []int{0}}
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) {
		t.Fatal("Equal is wrong")
	}
}

func TestMappingValidate(t *testing.T) {
	in := testInstance(t, [][]float64{{1, 2}, {3, 4}}, nil)
	if err := (Mapping{Assign: []int{0, 1}}).Validate(in); err != nil {
		t.Errorf("valid mapping rejected: %v", err)
	}
	if err := (Mapping{Assign: []int{0}}).Validate(in); err == nil {
		t.Error("short mapping accepted")
	}
	if err := (Mapping{Assign: []int{0, 2}}).Validate(in); err == nil {
		t.Error("out-of-range machine accepted")
	}
	if err := (Mapping{Assign: []int{0, -1}}).Validate(in); err == nil {
		t.Error("unassigned task accepted")
	}
}

func TestTasksOn(t *testing.T) {
	mp := Mapping{Assign: []int{1, 0, 1, 1}}
	got := mp.TasksOn(1)
	want := []int{0, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("TasksOn(1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TasksOn(1) = %v, want %v", got, want)
		}
	}
	if mp.TasksOn(2) != nil {
		t.Fatal("TasksOn for empty machine should be nil")
	}
}

func TestEvaluateEquationOne(t *testing.T) {
	// CT(t,m) = ETC(t,m) + RT(m); machine totals accumulate.
	in := testInstance(t, [][]float64{{2, 9}, {3, 9}, {9, 4}}, []float64{1, 5})
	s, err := Evaluate(in, Mapping{Assign: []int{0, 0, 1}})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if s.Completion[0] != 1+2+3 {
		t.Errorf("machine 0 CT = %g, want 6", s.Completion[0])
	}
	if s.Completion[1] != 5+4 {
		t.Errorf("machine 1 CT = %g, want 9", s.Completion[1])
	}
	if s.TaskFinish[0] != 3 || s.TaskFinish[1] != 6 || s.TaskFinish[2] != 9 {
		t.Errorf("task finishes = %v", s.TaskFinish)
	}
	if got := s.Makespan(); got != 9 {
		t.Errorf("makespan = %g, want 9", got)
	}
}

func TestEvaluateRejectsInvalid(t *testing.T) {
	in := testInstance(t, [][]float64{{1, 2}}, nil)
	if _, err := Evaluate(in, Mapping{Assign: []int{5}}); err == nil {
		t.Fatal("invalid mapping evaluated")
	}
}

func TestEvaluateClonesMapping(t *testing.T) {
	in := testInstance(t, [][]float64{{1, 2}}, nil)
	mp := Mapping{Assign: []int{0}}
	s, _ := Evaluate(in, mp)
	mp.Assign[0] = 1
	if s.Mapping.Assign[0] != 0 {
		t.Fatal("Evaluate aliased the caller's mapping")
	}
}

func TestMakespanMachineTieLowestIndex(t *testing.T) {
	in := testInstance(t, [][]float64{{5, 9}, {9, 5}}, nil)
	s, _ := Evaluate(in, Mapping{Assign: []int{0, 1}})
	m, ct := s.MakespanMachine()
	if m != 0 || ct != 5 {
		t.Fatalf("MakespanMachine = %d,%g want 0,5 (tie to lowest index)", m, ct)
	}
}

func TestMinMeanCompletion(t *testing.T) {
	in := testInstance(t, [][]float64{{2, 9}, {9, 6}}, nil)
	s, _ := Evaluate(in, Mapping{Assign: []int{0, 1}})
	if s.MinCompletion() != 2 {
		t.Errorf("min = %g", s.MinCompletion())
	}
	if s.MeanCompletion() != 4 {
		t.Errorf("mean = %g", s.MeanCompletion())
	}
}

func TestBalanceIndex(t *testing.T) {
	if bi := BalanceIndex([]float64{0, 0, 0}); bi != 0 {
		t.Errorf("BI of all-zero = %g, want 0", bi)
	}
	if bi := BalanceIndex([]float64{2, 4}); bi != 0.5 {
		t.Errorf("BI = %g, want 0.5", bi)
	}
	if bi := BalanceIndex([]float64{3, 3}); bi != 1 {
		t.Errorf("BI = %g, want 1", bi)
	}
}

func TestUtilization(t *testing.T) {
	in := testInstance(t, [][]float64{{4, 9}, {9, 2}}, []float64{0, 2})
	s, _ := Evaluate(in, Mapping{Assign: []int{0, 1}})
	u := s.Utilization()
	if u[0] != 1.0 {
		t.Errorf("u[0] = %g, want 1", u[0])
	}
	if u[1] != 0.5 {
		t.Errorf("u[1] = %g, want 0.5 (busy 2 of makespan 4)", u[1])
	}
}

func TestScheduleString(t *testing.T) {
	in := testInstance(t, [][]float64{{1, 2}}, nil)
	s, _ := Evaluate(in, Mapping{Assign: []int{0}})
	if !strings.Contains(s.String(), "makespan=1") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestCompletionsSorted(t *testing.T) {
	in := testInstance(t, [][]float64{{5, 9, 9}, {9, 2, 9}, {9, 9, 7}}, nil)
	s, _ := Evaluate(in, Mapping{Assign: []int{0, 1, 2}})
	cs := s.CompletionsSorted()
	if cs[0] != 2 || cs[1] != 5 || cs[2] != 7 {
		t.Fatalf("sorted completions = %v", cs)
	}
	// Must not mutate the schedule.
	if s.Completion[0] != 5 {
		t.Fatal("CompletionsSorted mutated the schedule")
	}
}

// Property: for any random instance and any complete mapping, the sum of
// (completion - ready) over machines equals the sum of assigned ETCs, and
// makespan >= every task finish.
func TestEvaluateConservation(t *testing.T) {
	src := rng.New(123)
	f := func(seed uint64) bool {
		local := rng.New(seed)
		tasks := 1 + local.Intn(20)
		machines := 1 + local.Intn(6)
		m, err := etc.GenerateRange(etc.RangeParams{Tasks: tasks, Machines: machines, TaskHet: 50, MachineHet: 10}, local)
		if err != nil {
			return false
		}
		ready := make([]float64, machines)
		for i := range ready {
			ready[i] = local.Float64() * 10
		}
		in, err := NewInstance(m, ready)
		if err != nil {
			return false
		}
		mp := NewMapping(tasks)
		for t2 := range mp.Assign {
			mp.Assign[t2] = local.Intn(machines)
		}
		s, err := Evaluate(in, mp)
		if err != nil {
			return false
		}
		sumBusy, sumETC := 0.0, 0.0
		for mm, c := range s.Completion {
			sumBusy += c - ready[mm]
		}
		for t2, mm := range mp.Assign {
			sumETC += m.At(t2, mm)
		}
		if math.Abs(sumBusy-sumETC) > 1e-9*(1+sumETC) {
			return false
		}
		ms := s.Makespan()
		for _, tf := range s.TaskFinish {
			if tf > ms+1e-12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Values: nil}
	_ = src
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

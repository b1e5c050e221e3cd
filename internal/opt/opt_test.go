package opt

import (
	"errors"
	"testing"

	"repro/internal/bounds"
	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

func inst(t *testing.T, vs [][]float64) *sched.Instance {
	t.Helper()
	in, err := sched.NewInstance(etc.MustNew(vs), nil)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSolveTinyKnownOptimum(t *testing.T) {
	in := inst(t, [][]float64{
		{2, 9, 9},
		{9, 2, 9},
		{9, 9, 2},
	})
	res, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Optimal || res.Makespan != 2 {
		t.Fatalf("result = %+v, want optimal makespan 2", res)
	}
}

func TestSolveBeatsGreedyWhenPossible(t *testing.T) {
	// Min-Min is suboptimal here: it greedily takes the cheap pair and
	// forces the long task onto a loaded machine.
	in := inst(t, [][]float64{
		{1, 2},
		{2, 4},
		{3, 3},
	})
	res, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	mm, _ := heuristics.MinMin{}.Map(in, tiebreak.First{})
	s, _ := sched.Evaluate(in, mm)
	if res.Makespan > s.Makespan() {
		t.Fatalf("exact %g worse than Min-Min %g", res.Makespan, s.Makespan())
	}
	if !res.Optimal {
		t.Fatal("tiny instance not solved to optimality")
	}
}

func TestSolveMatchesBruteForce(t *testing.T) {
	src := rng.New(71)
	for trial := 0; trial < 25; trial++ {
		tasks := 2 + src.Intn(5) // up to 6 tasks
		machines := 2 + src.Intn(3)
		vs := make([][]float64, tasks)
		for i := range vs {
			vs[i] = make([]float64, machines)
			for j := range vs[i] {
				vs[i][j] = float64(1 + src.Intn(9))
			}
		}
		in := inst(t, vs)
		res, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForce(in)
		if !res.Optimal || res.Makespan != want {
			t.Fatalf("trial %d: Solve = %g (optimal=%t), brute force = %g\n%v",
				trial, res.Makespan, res.Optimal, want, in.ETC())
		}
		s, err := sched.Evaluate(in, res.Mapping)
		if err != nil {
			t.Fatal(err)
		}
		if s.Makespan() != res.Makespan {
			t.Fatalf("reported makespan %g != evaluated %g", res.Makespan, s.Makespan())
		}
	}
}

// bruteForce enumerates all machines^tasks assignments.
func bruteForce(in *sched.Instance) float64 {
	nT, nM := in.Tasks(), in.Machines()
	assign := make([]int, nT)
	best := -1.0
	var rec func(i int)
	rec = func(i int) {
		if i == nT {
			s, err := sched.Evaluate(in, sched.Mapping{Assign: assign})
			if err != nil {
				panic(err)
			}
			if ms := s.Makespan(); best < 0 || ms < best {
				best = ms
			}
			return
		}
		for m := 0; m < nM; m++ {
			assign[i] = m
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

func TestSolveRespectsLowerBound(t *testing.T) {
	src := rng.New(72)
	for trial := 0; trial < 15; trial++ {
		m, err := etc.GenerateRange(etc.RangeParams{
			Tasks: 2 + src.Intn(8), Machines: 2 + src.Intn(3),
			TaskHet: 30, MachineHet: 6,
		}, src)
		if err != nil {
			t.Fatal(err)
		}
		in, _ := sched.NewInstance(m, nil)
		res, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if lb := bounds.Best(in); res.Makespan < lb-1e-9 {
			t.Fatalf("optimal %g below lower bound %g — one of them is wrong", res.Makespan, lb)
		}
	}
}

func TestSolveWithReadyTimes(t *testing.T) {
	in, err := sched.NewInstance(etc.MustNew([][]float64{
		{1, 1},
		{1, 1},
	}), []float64{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	// Machine 1 starts at 5: the best plan puts both tasks on machine 0
	// (makespan max(2, 5) = 5).
	if res.Makespan != 5 {
		t.Fatalf("makespan = %g, want 5", res.Makespan)
	}
}

func TestSolveGuards(t *testing.T) {
	if _, err := Solve(nil); err == nil {
		t.Error("nil instance accepted")
	}
	big := make([][]float64, MaxTasks+1)
	for i := range big {
		big[i] = []float64{1}
	}
	if _, err := Solve(inst(t, big)); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized instance error = %v, want ErrTooLarge", err)
	}
}

func TestSolveNodeBudget(t *testing.T) {
	src := rng.New(73)
	m, err := etc.GenerateRange(etc.RangeParams{Tasks: 18, Machines: 6, TaskHet: 50, MachineHet: 10}, src)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := sched.NewInstance(m, nil)
	res, err := solve(in, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Optimal {
		t.Skip("instance solved within 50 nodes; budget path not exercised")
	}
	// Even when aborted, the incumbent must be a valid complete mapping.
	if err := res.Mapping.Validate(in); err != nil {
		t.Fatal(err)
	}
}

// Genitor at a small budget lands close to, never below, the optimum.
func TestGenitorNearOptimumOnSmallInstances(t *testing.T) {
	src := rng.New(74)
	for trial := 0; trial < 5; trial++ {
		m, err := etc.GenerateRange(etc.RangeParams{Tasks: 8, Machines: 3, TaskHet: 30, MachineHet: 6}, src)
		if err != nil {
			t.Fatal(err)
		}
		in, _ := sched.NewInstance(m, nil)
		exact, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		g := heuristics.NewGenitor(heuristics.GenitorConfig{PopulationSize: 40, Steps: 800}, uint64(trial))
		mp, err := g.Map(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := sched.Evaluate(in, mp)
		// The solver must never lose to the GA; the GA should stay within a
		// modest gap of the optimum on instances this small.
		if s.Makespan() < exact.Makespan-1e-9 {
			t.Fatalf("trial %d: Genitor %g beat the 'optimal' %g — the solver is wrong",
				trial, s.Makespan(), exact.Makespan)
		}
		if s.Makespan() > exact.Makespan*1.25 {
			t.Errorf("trial %d: Genitor %g more than 25%% above optimum %g",
				trial, s.Makespan(), exact.Makespan)
		}
	}
}

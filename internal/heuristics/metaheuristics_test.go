package heuristics

import (
	"testing"

	"repro/internal/etc"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// metaheuristics under test, with small search budgets.
func smallMetaheuristics(seed uint64) []Seedable {
	return []Seedable{
		NewSimulatedAnnealing(SAConfig{Steps: 500}, seed),
		NewGeneticAlgorithm(GAConfig{PopulationSize: 20, Generations: 30}, seed),
		NewTabuSearch(TabuConfig{MaxSteps: 60}, seed),
	}
}

func TestMetaheuristicDefaults(t *testing.T) {
	sa := NewSimulatedAnnealing(SAConfig{}, 1)
	if sa.cfg.Steps != 2000 {
		t.Fatalf("SA defaults = %+v", sa.cfg)
	}
	ga := NewGeneticAlgorithm(GAConfig{}, 1)
	if ga.cfg.PopulationSize != 100 || ga.cfg.Generations != 100 {
		t.Fatalf("GA defaults = %+v", ga.cfg)
	}
	tb := NewTabuSearch(TabuConfig{}, 1)
	if tb.cfg.MaxSteps != 200 {
		t.Fatalf("Tabu defaults = %+v", tb.cfg)
	}
}

func TestMetaheuristicsFindOptimumOnTinyInstance(t *testing.T) {
	// Optimal makespan 2: the diagonal assignment.
	in := inst(t, [][]float64{
		{2, 9, 9},
		{9, 2, 9},
		{9, 9, 2},
	})
	for _, h := range smallMetaheuristics(7) {
		mp, err := h.Map(in, tiebreak.First{})
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		s, _ := sched.Evaluate(in, mp)
		if s.Makespan() != 2 {
			t.Errorf("%s: makespan %g, want 2 (mapping %v)", h.Name(), s.Makespan(), mp.Assign)
		}
	}
}

func TestMetaheuristicsNeverWorseThanMCTStart(t *testing.T) {
	m, err := etc.GenerateRange(etc.RangeParams{Tasks: 25, Machines: 5, TaskHet: 100, MachineHet: 10}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	in, _ := sched.NewInstance(m, nil)
	mct, _ := (MCT{}).Map(in, tiebreak.First{})
	sMCT, _ := sched.Evaluate(in, mct)
	for _, h := range smallMetaheuristics(11) {
		mp, err := h.Map(in, tiebreak.First{})
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		s, _ := sched.Evaluate(in, mp)
		// SA and Tabu start from MCT and track the best-seen solution; GA
		// seeds Min-Min but is elitist, so a sanity bound of MCT*1.0 holds
		// only for SA/Tabu. GA must beat random (bounded loosely by MCT*2).
		bound := sMCT.Makespan()
		if h.Name() == "ga" {
			bound *= 2
		}
		if s.Makespan() > bound {
			t.Errorf("%s: makespan %g exceeds bound %g", h.Name(), s.Makespan(), bound)
		}
	}
}

func TestMetaheuristicsSeededNeverWorseThanSeed(t *testing.T) {
	src := rng.New(17)
	for trial := 0; trial < 10; trial++ {
		m, err := etc.GenerateRange(etc.RangeParams{Tasks: 12, Machines: 4, TaskHet: 50, MachineHet: 8}, src)
		if err != nil {
			t.Fatal(err)
		}
		in, _ := sched.NewInstance(m, nil)
		seed, _ := (Sufferage{}).Map(in, tiebreak.First{})
		sSeed, _ := sched.Evaluate(in, seed)
		for _, h := range smallMetaheuristics(uint64(trial)) {
			mp, err := mapSeeded(h, in, tiebreak.First{}, seed)
			if err != nil {
				t.Fatalf("%s: %v", h.Name(), err)
			}
			s, _ := sched.Evaluate(in, mp)
			if s.Makespan() > sSeed.Makespan()+Epsilon {
				t.Errorf("trial %d: seeded %s (%g) worse than seed (%g)",
					trial, h.Name(), s.Makespan(), sSeed.Makespan())
			}
		}
	}
}

func TestMetaheuristicsDeterministicPerSeed(t *testing.T) {
	m, _ := etc.GenerateRange(etc.RangeParams{Tasks: 10, Machines: 3, TaskHet: 50, MachineHet: 5}, rng.New(5))
	in, _ := sched.NewInstance(m, nil)
	for _, make2 := range []func(uint64) Seedable{
		func(s uint64) Seedable { return NewSimulatedAnnealing(SAConfig{Steps: 300}, s) },
		func(s uint64) Seedable { return NewGeneticAlgorithm(GAConfig{PopulationSize: 12, Generations: 15}, s) },
		func(s uint64) Seedable { return NewTabuSearch(TabuConfig{MaxSteps: 40}, s) },
	} {
		a, err := make2(99).Map(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := make2(99).Map(in, tiebreak.First{})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Errorf("%s not reproducible per seed", make2(99).Name())
		}
	}
}

func TestMetaheuristicsRejectInvalidSeed(t *testing.T) {
	in := inst(t, [][]float64{{1, 2}})
	bad := sched.Mapping{Assign: []int{9}}
	for _, h := range smallMetaheuristics(1) {
		if _, err := mapSeeded(h, in, tiebreak.First{}, bad); err == nil {
			t.Errorf("%s accepted an invalid seed", h.Name())
		}
	}
}

func TestMetaheuristicsDoNotMutateSeed(t *testing.T) {
	in := inst(t, [][]float64{{1, 2}, {2, 1}, {3, 3}})
	seed := sched.Mapping{Assign: []int{1, 0, 1}}
	for _, h := range smallMetaheuristics(2) {
		if _, err := mapSeeded(h, in, tiebreak.First{}, seed); err != nil {
			t.Fatal(err)
		}
		if seed.Assign[0] != 1 || seed.Assign[1] != 0 || seed.Assign[2] != 1 {
			t.Fatalf("%s mutated the seed: %v", h.Name(), seed.Assign)
		}
	}
}

func TestTabuAspirationAndRestartPaths(t *testing.T) {
	// A larger run with small patience exercises the restart branch.
	m, _ := etc.GenerateRange(etc.RangeParams{Tasks: 15, Machines: 4, TaskHet: 50, MachineHet: 5}, rng.New(8))
	in, _ := sched.NewInstance(m, nil)
	h := NewTabuSearch(TabuConfig{MaxSteps: 150}, 4)
	mp, err := h.Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mp.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestMachineLoadsHelper(t *testing.T) {
	in := instReady(t, [][]float64{{2, 9}, {9, 3}}, []float64{1, 0})
	loads, ms, err := machineLoads(in, sched.Mapping{Assign: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if loads[0] != 3 || loads[1] != 3 || ms != 3 {
		t.Fatalf("loads=%v ms=%g", loads, ms)
	}
	if _, _, err := machineLoads(in, sched.Mapping{Assign: []int{5, 0}}); err == nil {
		t.Fatal("invalid mapping accepted")
	}
}

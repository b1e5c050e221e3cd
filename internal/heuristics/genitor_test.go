package heuristics

import (
	"testing"

	"repro/internal/etc"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

func TestGenitorDefaults(t *testing.T) {
	g := NewGenitor(GenitorConfig{}, 1)
	if g.cfg.PopulationSize != 100 || g.cfg.Steps != 1000 || !g.cfg.SeedWithMinMin {
		t.Fatalf("defaults = %+v", g.cfg)
	}
	g2 := NewGenitor(GenitorConfig{PopulationSize: 10}, 1)
	if g2.cfg.PopulationSize != 10 || g2.cfg.Steps != 1000 {
		t.Fatalf("partial config = %+v", g2.cfg)
	}
}

func TestGenitorFindsOptimumOnTinyInstance(t *testing.T) {
	// Optimal makespan is 2: each task on its own fast machine.
	in := inst(t, [][]float64{
		{2, 5},
		{5, 2},
	})
	g := NewGenitor(GenitorConfig{PopulationSize: 20, Steps: 200}, 3)
	mp, err := g.Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sched.Evaluate(in, mp)
	if s.Makespan() != 2 {
		t.Fatalf("makespan = %g, want 2 (mapping %v)", s.Makespan(), mp.Assign)
	}
}

func TestGenitorBeatsOrMatchesMinMin(t *testing.T) {
	m, err := etc.GenerateRange(etc.RangeParams{Tasks: 20, Machines: 4, TaskHet: 100, MachineHet: 10}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	in, _ := sched.NewInstance(m, nil)
	mm, _ := (MinMin{}).Map(in, tiebreak.First{})
	sMM, _ := sched.Evaluate(in, mm)
	g := NewGenitor(GenitorConfig{PopulationSize: 50, Steps: 500, SeedWithMinMin: true}, 8)
	mp, err := g.Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sched.Evaluate(in, mp)
	if s.Makespan() > sMM.Makespan() {
		t.Fatalf("Genitor (%g) worse than its Min-Min seed (%g)", s.Makespan(), sMM.Makespan())
	}
}

func TestGenitorSeededNeverWorse(t *testing.T) {
	m, err := etc.GenerateRange(etc.RangeParams{Tasks: 15, Machines: 3, TaskHet: 50, MachineHet: 5}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	in, _ := sched.NewInstance(m, nil)
	seed, _ := (MCT{}).Map(in, tiebreak.First{})
	sSeed, _ := sched.Evaluate(in, seed)
	// Starve the GA (few steps) so the guarantee must come from seeding,
	// not search power.
	g := NewGenitor(GenitorConfig{PopulationSize: 10, Steps: 1}, 9)
	mp, err := mapSeeded(g, in, tiebreak.First{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sched.Evaluate(in, mp)
	if s.Makespan() > sSeed.Makespan() {
		t.Fatalf("seeded Genitor (%g) worse than seed (%g)", s.Makespan(), sSeed.Makespan())
	}
}

func TestGenitorSeedValidation(t *testing.T) {
	in := inst(t, [][]float64{{1, 2}})
	g := NewGenitor(GenitorConfig{PopulationSize: 5, Steps: 1}, 1)
	if _, err := mapSeeded(g, in, tiebreak.First{}, sched.Mapping{Assign: []int{7}}); err == nil {
		t.Fatal("invalid seed accepted")
	}
}

func TestGenitorDeterministicPerSeed(t *testing.T) {
	m, _ := etc.GenerateRange(etc.RangeParams{Tasks: 10, Machines: 3, TaskHet: 50, MachineHet: 5}, rng.New(11))
	in, _ := sched.NewInstance(m, nil)
	a, err := NewGenitor(GenitorConfig{PopulationSize: 15, Steps: 100}, 42).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewGenitor(GenitorConfig{PopulationSize: 15, Steps: 100}, 42).Map(in, tiebreak.First{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("Genitor not reproducible for a fixed seed")
	}
}

func TestGenitorDoesNotMutateSeed(t *testing.T) {
	in := inst(t, [][]float64{{1, 2}, {2, 1}})
	seed := sched.Mapping{Assign: []int{1, 0}} // deliberately bad
	g := NewGenitor(GenitorConfig{PopulationSize: 8, Steps: 50}, 2)
	if _, err := mapSeeded(g, in, tiebreak.First{}, seed); err != nil {
		t.Fatal(err)
	}
	if seed.Assign[0] != 1 || seed.Assign[1] != 0 {
		t.Fatalf("seed mutated: %v", seed.Assign)
	}
}

func TestSeededWrapperReturnsBetterOfSeedAndInner(t *testing.T) {
	// MET piles everything on machine 0; a balanced seed is better.
	in := inst(t, [][]float64{
		{1, 2},
		{1, 2},
		{1, 2},
		{1, 2},
	})
	seed := sched.Mapping{Assign: []int{0, 0, 0, 1}} // makespan 3; MET gives 4
	s := Seeded{Inner: MET{}}
	mp, err := mapSeeded(s, in, tiebreak.First{}, seed)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := sched.Evaluate(in, mp)
	if sc.Makespan() != 3 {
		t.Fatalf("seeded makespan = %g, want 3 (seed should win over MET's 4x on m0)", sc.Makespan())
	}
	if !mp.Equal(seed) {
		t.Fatalf("expected the seed mapping, got %v", mp.Assign)
	}
}

func TestSeededWrapperPrefersInnerOnTieOrWin(t *testing.T) {
	in := inst(t, [][]float64{{1, 9}})
	inner, _ := (MCT{}).Map(in, tiebreak.First{})
	s := Seeded{Inner: MCT{}}
	mp, err := mapSeeded(s, in, tiebreak.First{}, sched.Mapping{Assign: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !mp.Equal(inner) {
		t.Fatalf("inner result should win: got %v", mp.Assign)
	}
}

func TestSeededWrapperNilSeed(t *testing.T) {
	in := inst(t, [][]float64{{1, 9}})
	s := Seeded{Inner: MCT{}}
	mp, err := mapSeeded(s, in, tiebreak.First{}, sched.Mapping{})
	if err != nil {
		t.Fatal(err)
	}
	assertAssign(t, mp, []int{0})
}

func TestSeededWrapperRejectsInvalidSeed(t *testing.T) {
	in := inst(t, [][]float64{{1, 9}})
	s := Seeded{Inner: MCT{}}
	if _, err := mapSeeded(s, in, tiebreak.First{}, sched.Mapping{Assign: []int{5}}); err == nil {
		t.Fatal("invalid seed accepted")
	}
}

func TestSeededName(t *testing.T) {
	if got := (Seeded{Inner: MCT{}}).Name(); got != "seeded(mct)" {
		t.Fatalf("Name = %q", got)
	}
}

// mapSeeded runs h's seeded search on a fresh Scratch into a fresh
// mapping.
func mapSeeded(h Seedable, in *sched.Instance, tb tiebreak.Policy, seed sched.Mapping) (sched.Mapping, error) {
	return h.MapSeededInto(in, tb, new(Scratch), seed, nil)
}

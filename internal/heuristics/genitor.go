package heuristics

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// GenitorConfig parameterises the steady-state genetic algorithm of paper
// Figure 1 (after Whitley '89). The zero value selects
// DefaultGenitorConfig, the registry's, Min-Min seed included. A config
// that sets a budget keeps its SeedWithMinMin as given and defaults only
// the other budget, so a partial config (one budget set, or both and
// nothing else) runs without the Min-Min seed; the experiments' Genitor
// monotonicity run relies on that.
type GenitorConfig struct {
	// PopulationSize is the fixed number of chromosomes (default 100).
	PopulationSize int
	// Steps is the number of main-loop iterations; each performs one
	// crossover (two offspring) and one mutation (default 1000).
	Steps int
	// SeedWithMinMin seeds the initial population with the Min-Min mapping
	// in addition to random chromosomes, the usual practice in the
	// literature (default true via DefaultGenitorConfig; zero value false).
	SeedWithMinMin bool
}

// DefaultGenitorConfig returns the defaults used by the registry.
func DefaultGenitorConfig() GenitorConfig {
	return GenitorConfig{PopulationSize: 100, Steps: 1000, SeedWithMinMin: true}
}

func (c GenitorConfig) withDefaults() GenitorConfig {
	if c.PopulationSize == 0 && c.Steps == 0 {
		return DefaultGenitorConfig()
	}
	if c.PopulationSize <= 0 {
		c.PopulationSize = 100
	}
	if c.Steps <= 0 {
		c.Steps = 1000
	}
	return c
}

// Genitor is a steady-state genetic algorithm over complete mappings:
// a ranked fixed-size population, single-point crossover on the task-index
// axis, single-gene mutation, and worst-out replacement. Because insertion
// is rank-based and the population never discards its best member, the best
// makespan is monotonically non-increasing — the property the paper relies
// on for the iterative technique ("the final mapping is either the seeded
// mapping or a mapping with a smaller makespan").
//
// Genitor implements Seedable natively: MapSeededInto inserts the seed into
// the initial population.
type Genitor struct {
	cfg GenitorConfig
	src *rng.Source
}

// NewGenitor builds a Genitor with its own deterministic random stream.
func NewGenitor(cfg GenitorConfig, seed uint64) *Genitor {
	return &Genitor{cfg: cfg.withDefaults(), src: rng.New(seed)}
}

// Name implements Heuristic.
func (g *Genitor) Name() string { return "genitor" }

// chromosome pairs a mapping with its cached makespan fitness.
type chromosome struct {
	assign   []int
	makespan float64
}

// Map implements Heuristic.
func (g *Genitor) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, g.MapInto)
}

// MapInto implements Heuristic.
func (g *Genitor) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	return g.MapSeededInto(in, tb, sc, sched.Mapping{}, dst)
}

// MapSeededInto implements Seedable. If seed holds a complete valid mapping
// it joins the initial population, guaranteeing the result is at least as
// good. The best chromosome is copied into dst.
func (g *Genitor) MapSeededInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, seed sched.Mapping, dst []int) (sched.Mapping, error) {
	nT, nM := in.Tasks(), in.Machines()
	src := g.src.Split() // each run consumes an independent child stream
	pop := make([]chromosome, 0, g.cfg.PopulationSize+2)

	add := func(assign []int) error {
		c := chromosome{assign: assign}
		ms, err := g.fitness(in, assign)
		if err != nil {
			return err
		}
		c.makespan = ms
		pop = append(pop, c)
		return nil
	}

	if seed.Assign != nil {
		if err := seed.Validate(in); err != nil {
			return sched.Mapping{}, fmt.Errorf("heuristics: genitor seed invalid: %w", err)
		}
		cp := seed.Clone()
		if err := add(cp.Assign); err != nil {
			return sched.Mapping{}, err
		}
	}
	if g.cfg.SeedWithMinMin {
		mm, err := (MinMin{}).MapInto(in, tiebreak.First{}, sc, nil)
		if err != nil {
			return sched.Mapping{}, err
		}
		if err := add(mm.Assign); err != nil {
			return sched.Mapping{}, err
		}
	}
	for len(pop) < g.cfg.PopulationSize {
		assign := make([]int, nT)
		for t := range assign {
			assign[t] = src.Intn(nM)
		}
		if err := add(assign); err != nil {
			return sched.Mapping{}, err
		}
	}
	// Rank the initial population by makespan (step 2 of Figure 1).
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].makespan < pop[j].makespan })

	for step := 0; step < g.cfg.Steps; step++ {
		// Crossover (step 3a): two random parents, one random cut point;
		// machine assignments below the cut are exchanged.
		p1 := pop[src.Intn(len(pop))]
		p2 := pop[src.Intn(len(pop))]
		cut := src.Intn(nT + 1)
		c1 := make([]int, nT)
		c2 := make([]int, nT)
		copy(c1, p1.assign)
		copy(c2, p2.assign)
		for t := 0; t < cut; t++ {
			c1[t], c2[t] = c2[t], c1[t]
		}
		if err := g.insert(in, &pop, c1); err != nil {
			return sched.Mapping{}, err
		}
		if err := g.insert(in, &pop, c2); err != nil {
			return sched.Mapping{}, err
		}
		// Mutation (step 3b): one random chromosome, one random gene moved
		// to an arbitrary machine.
		p := pop[src.Intn(len(pop))]
		c3 := make([]int, nT)
		copy(c3, p.assign)
		c3[src.Intn(nT)] = src.Intn(nM)
		if err := g.insert(in, &pop, c3); err != nil {
			return sched.Mapping{}, err
		}
	}
	out := grow(dst, nT)
	copy(out, pop[0].assign)
	return sched.Mapping{Assign: out}, nil
}

// insert places a new chromosome into the ranked population and drops the
// worst member, keeping the size fixed (elitist worst-out replacement).
func (g *Genitor) insert(in *sched.Instance, pop *[]chromosome, assign []int) error {
	ms, err := g.fitness(in, assign)
	if err != nil {
		return err
	}
	p := *pop
	// Find the insertion point (stable: after equals).
	i := sort.Search(len(p), func(k int) bool { return p[k].makespan > ms })
	p = append(p, chromosome{})
	copy(p[i+1:], p[i:])
	p[i] = chromosome{assign: assign, makespan: ms}
	p = p[:len(p)-1] // drop the worst
	*pop = p
	return nil
}

func (g *Genitor) fitness(in *sched.Instance, assign []int) (float64, error) {
	s, err := sched.Evaluate(in, sched.Mapping{Assign: assign})
	if err != nil {
		return 0, err
	}
	return s.Makespan(), nil
}

// Seeded adapts any Heuristic into a Seedable one by the construction the
// paper's conclusion proposes: run the inner heuristic, then return the
// better of its result and the seed. The makespan therefore can never
// increase across iterations of the iterative technique.
type Seeded struct {
	Inner Heuristic
}

// Name implements Heuristic.
func (s Seeded) Name() string {
	inner := s.Inner.Name()
	if name, ok := seededNames[inner]; ok {
		return name
	}
	return "seeded(" + inner + ")"
}

// seededNames maps each registry heuristic's name to Seeded's name over
// it, built once, so naming Seeded over a registry heuristic costs no
// allocation.
var seededNames = func() map[string]string {
	names := make(map[string]string, len(registry))
	for _, build := range registry {
		inner := build(0).Name()
		names[inner] = "seeded(" + inner + ")"
	}
	return names
}()

// Map implements Heuristic (no seed: delegates).
func (s Seeded) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return s.Inner.Map(in, tb)
}

// MapInto implements Heuristic (no seed: delegates).
func (s Seeded) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	return s.Inner.MapInto(in, tb, sc, dst)
}

// MapSeededInto implements Seedable: the inner heuristic maps into dst, and
// a strictly better seed is copied over its mapping.
func (s Seeded) MapSeededInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, seed sched.Mapping, dst []int) (sched.Mapping, error) {
	mp, err := s.Inner.MapInto(in, tb, sc, dst)
	if err != nil {
		return sched.Mapping{}, err
	}
	if seed.Assign == nil {
		return mp, nil
	}
	if err := seed.Validate(in); err != nil {
		return sched.Mapping{}, fmt.Errorf("heuristics: seed invalid: %w", err)
	}
	cs, err := sched.Completions(in, mp, sc.completion)
	if err != nil {
		return sched.Mapping{}, err
	}
	innerMS := sched.Makespan(cs)
	if cs, err = sched.Completions(in, seed, cs); err != nil {
		return sched.Mapping{}, err
	}
	sc.completion = cs
	if sched.Makespan(cs) < innerMS {
		// The caller may reuse seed after this call returns, so the
		// result holds a copy of it.
		copy(mp.Assign, seed.Assign)
	}
	return mp, nil
}

package heuristics

import (
	"math"
	"sort"

	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// This file implements the remaining metaheuristic baselines of the
// comparison study the paper builds on (Braun et al., "A comparison of
// eleven static heuristics ..."): simulated annealing, a generational
// genetic algorithm, and tabu search. They complement Genitor (genitor.go)
// and complete the repository's baseline set. Like Genitor, they draw
// randomness from their own deterministic streams and do not consult the
// tie-breaking policy (the paper's tie analysis targets the greedy
// heuristics).

// SAConfig parameterises SimulatedAnnealing. Zero values select defaults.
type SAConfig struct {
	// Steps is the number of mutation trials (default 2000).
	Steps int
}

func (c SAConfig) withDefaults() SAConfig {
	if c.Steps <= 0 {
		c.Steps = 2000
	}
	return c
}

// Simulated annealing's fixed schedule: the starting temperature is
// saInitialTempFactor times the initial mapping's makespan (after Braun et
// al.), and it decays geometrically by saCooling per step.
const (
	saInitialTempFactor = 0.1
	saCooling           = 0.995
)

// SimulatedAnnealing is the classic single-solution metaheuristic: start
// from the MCT mapping, repeatedly move one random task to a random
// machine, accept improvements always and regressions with probability
// exp(-delta/T) under a geometric cooling schedule, and return the best
// mapping seen.
type SimulatedAnnealing struct {
	cfg SAConfig
	src *rng.Source
}

// NewSimulatedAnnealing builds the heuristic with its own random stream.
func NewSimulatedAnnealing(cfg SAConfig, seed uint64) *SimulatedAnnealing {
	return &SimulatedAnnealing{cfg: cfg.withDefaults(), src: rng.New(seed)}
}

// Name implements Heuristic.
func (s *SimulatedAnnealing) Name() string { return "sa" }

// Map implements Heuristic.
func (s *SimulatedAnnealing) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, s.MapInto)
}

// MapInto implements Heuristic.
func (s *SimulatedAnnealing) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	return s.MapSeededInto(in, tb, sc, sched.Mapping{}, dst)
}

// MapSeededInto implements Seedable: the search starts from the seed when
// one is given, and the result is never worse than the best visited
// solution, which includes the start. dst holds the best solution.
func (s *SimulatedAnnealing) MapSeededInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, seed sched.Mapping, dst []int) (sched.Mapping, error) {
	src := s.src.Split()
	cur, err := startMapping(in, tb, sc, seed)
	if err != nil {
		return sched.Mapping{}, err
	}
	loads, curMS, err := machineLoads(in, cur)
	if err != nil {
		return sched.Mapping{}, err
	}
	best := sched.Mapping{Assign: grow(dst, len(cur.Assign))}
	copy(best.Assign, cur.Assign)
	bestMS := curMS
	temp := curMS * saInitialTempFactor
	if temp <= 0 {
		temp = 1
	}
	nT, nM := in.Tasks(), in.Machines()
	for step := 0; step < s.cfg.Steps; step++ {
		t := src.Intn(nT)
		from := cur.Assign[t]
		to := src.Intn(nM)
		if to == from {
			temp *= saCooling
			continue
		}
		// Apply the move incrementally.
		loads[from] -= in.ETC().At(t, from)
		loads[to] += in.ETC().At(t, to)
		newMS := maxOf(loads)
		delta := newMS - curMS
		accept := delta <= 0
		if !accept && temp > 0 {
			accept = src.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			cur.Assign[t] = to
			curMS = newMS
			if curMS < bestMS {
				bestMS = curMS
				copy(best.Assign, cur.Assign)
			}
		} else {
			// Revert.
			loads[from] += in.ETC().At(t, from)
			loads[to] -= in.ETC().At(t, to)
		}
		temp *= saCooling
	}
	return best, nil
}

// GAConfig parameterises GeneticAlgorithm. Zero values select defaults.
type GAConfig struct {
	// PopulationSize (default 100), Generations (default 100).
	PopulationSize, Generations int
}

func (c GAConfig) withDefaults() GAConfig {
	if c.PopulationSize <= 0 {
		c.PopulationSize = 100
	}
	if c.Generations <= 0 {
		c.Generations = 100
	}
	return c
}

// The GA's per-offspring crossover and per-gene mutation probabilities.
const (
	gaCrossoverProb = 0.6
	gaMutationProb  = 0.05
)

// GeneticAlgorithm is the generational GA baseline (distinct from the
// steady-state Genitor): rank-biased parent selection, single-point
// crossover, per-gene mutation, and one-elite survival per generation.
type GeneticAlgorithm struct {
	cfg GAConfig
	src *rng.Source
}

// NewGeneticAlgorithm builds the heuristic with its own random stream.
func NewGeneticAlgorithm(cfg GAConfig, seed uint64) *GeneticAlgorithm {
	return &GeneticAlgorithm{cfg: cfg.withDefaults(), src: rng.New(seed)}
}

// Name implements Heuristic.
func (g *GeneticAlgorithm) Name() string { return "ga" }

// Map implements Heuristic.
func (g *GeneticAlgorithm) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, g.MapInto)
}

// MapInto implements Heuristic.
func (g *GeneticAlgorithm) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	return g.MapSeededInto(in, tb, sc, sched.Mapping{}, dst)
}

// MapSeededInto implements Seedable: the seed joins the initial population
// and elitism preserves the best chromosome across generations, which is
// copied into dst.
func (g *GeneticAlgorithm) MapSeededInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, seed sched.Mapping, dst []int) (sched.Mapping, error) {
	src := g.src.Split()
	nT, nM := in.Tasks(), in.Machines()
	type chrom struct {
		assign   []int
		makespan float64
	}
	evaluate := func(assign []int) (float64, error) {
		_, ms, err := machineLoads(in, sched.Mapping{Assign: assign})
		return ms, err
	}
	pop := make([]chrom, 0, g.cfg.PopulationSize)
	addSeed := func(mp sched.Mapping) error {
		if mp.Assign == nil {
			return nil
		}
		if err := mp.Validate(in); err != nil {
			return err
		}
		cp := mp.Clone()
		ms, err := evaluate(cp.Assign)
		if err != nil {
			return err
		}
		pop = append(pop, chrom{cp.Assign, ms})
		return nil
	}
	if err := addSeed(seed); err != nil {
		return sched.Mapping{}, err
	}
	mm, err := (MinMin{}).MapInto(in, tiebreak.First{}, sc, nil)
	if err != nil {
		return sched.Mapping{}, err
	}
	if err := addSeed(mm); err != nil {
		return sched.Mapping{}, err
	}
	for len(pop) < g.cfg.PopulationSize {
		assign := make([]int, nT)
		for t := range assign {
			assign[t] = src.Intn(nM)
		}
		ms, err := evaluate(assign)
		if err != nil {
			return sched.Mapping{}, err
		}
		pop = append(pop, chrom{assign, ms})
	}

	rank := func() {
		sort.SliceStable(pop, func(i, j int) bool { return pop[i].makespan < pop[j].makespan })
	}
	rank()
	// Rank-biased selection: quadratic bias toward the front of the sorted
	// population.
	selectParent := func() chrom {
		u := src.Float64()
		idx := int(u * u * float64(len(pop)))
		if idx >= len(pop) {
			idx = len(pop) - 1
		}
		return pop[idx]
	}

	for gen := 0; gen < g.cfg.Generations; gen++ {
		next := make([]chrom, 0, g.cfg.PopulationSize)
		next = append(next, pop[0]) // elitism
		for len(next) < g.cfg.PopulationSize {
			p1, p2 := selectParent(), selectParent()
			child := make([]int, nT)
			copy(child, p1.assign)
			if src.Float64() < gaCrossoverProb {
				cut := src.Intn(nT + 1)
				copy(child[:cut], p2.assign[:cut])
			}
			for t := 0; t < nT; t++ {
				if src.Float64() < gaMutationProb {
					child[t] = src.Intn(nM)
				}
			}
			ms, err := evaluate(child)
			if err != nil {
				return sched.Mapping{}, err
			}
			next = append(next, chrom{child, ms})
		}
		pop = next
		rank()
	}
	out := grow(dst, nT)
	copy(out, pop[0].assign)
	return sched.Mapping{Assign: out}, nil
}

// TabuConfig parameterises TabuSearch. Zero values select defaults.
type TabuConfig struct {
	// MaxSteps bounds the total number of moves (default 200).
	MaxSteps int
}

func (c TabuConfig) withDefaults() TabuConfig {
	if c.MaxSteps <= 0 {
		c.MaxSteps = 200
	}
	return c
}

// Tabu search's fixed memory: a reversed move stays forbidden for
// tabuTenure steps, and tabuPatience consecutive non-improving steps
// trigger a random restart ("long hop", after Braun et al.).
const (
	tabuTenure   = 12
	tabuPatience = 25
)

// TabuSearch is a best-improvement local search over single-task moves with
// a recency-based tabu list and random restarts: each step evaluates every
// (task, machine) move, takes the best non-tabu one (aspiration: a tabu
// move that beats the global best is allowed), and forbids its reversal for
// tabuTenure steps.
type TabuSearch struct {
	cfg TabuConfig
	src *rng.Source
}

// NewTabuSearch builds the heuristic with its own random stream.
func NewTabuSearch(cfg TabuConfig, seed uint64) *TabuSearch {
	return &TabuSearch{cfg: cfg.withDefaults(), src: rng.New(seed)}
}

// Name implements Heuristic.
func (t *TabuSearch) Name() string { return "tabu" }

// Map implements Heuristic.
func (t *TabuSearch) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, t.MapInto)
}

// MapInto implements Heuristic.
func (t *TabuSearch) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	return t.MapSeededInto(in, tb, sc, sched.Mapping{}, dst)
}

// MapSeededInto implements Seedable; dst holds the best solution visited.
func (t *TabuSearch) MapSeededInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, seed sched.Mapping, dst []int) (sched.Mapping, error) {
	src := t.src.Split()
	cur, err := startMapping(in, tb, sc, seed)
	if err != nil {
		return sched.Mapping{}, err
	}
	loads, curMS, err := machineLoads(in, cur)
	if err != nil {
		return sched.Mapping{}, err
	}
	best := sched.Mapping{Assign: grow(dst, len(cur.Assign))}
	copy(best.Assign, cur.Assign)
	bestMS := curMS
	nT, nM := in.Tasks(), in.Machines()
	// tabuUntil[t][m]: step before which moving task t back to machine m is
	// forbidden.
	tabuUntil := make([][]int, nT)
	for i := range tabuUntil {
		tabuUntil[i] = make([]int, nM)
	}
	stale := 0
	for step := 0; step < t.cfg.MaxSteps; step++ {
		bestT, bestM := -1, -1
		bestMoveMS := math.Inf(1)
		for task := 0; task < nT; task++ {
			from := cur.Assign[task]
			for m := 0; m < nM; m++ {
				if m == from {
					continue
				}
				newFrom := loads[from] - in.ETC().At(task, from)
				newTo := loads[m] + in.ETC().At(task, m)
				ms := newFrom
				if newTo > ms {
					ms = newTo
				}
				for mm, l := range loads {
					if mm != from && mm != m && l > ms {
						ms = l
					}
				}
				tabu := step < tabuUntil[task][m]
				if tabu && ms >= bestMS { // aspiration criterion
					continue
				}
				if ms < bestMoveMS {
					bestMoveMS, bestT, bestM = ms, task, m
				}
			}
		}
		if bestT < 0 {
			break // everything tabu and nothing aspires: stuck
		}
		from := cur.Assign[bestT]
		loads[from] -= in.ETC().At(bestT, from)
		loads[bestM] += in.ETC().At(bestT, bestM)
		cur.Assign[bestT] = bestM
		curMS = bestMoveMS
		tabuUntil[bestT][from] = step + tabuTenure // forbid the reversal
		if curMS < bestMS-Epsilon {
			bestMS = curMS
			copy(best.Assign, cur.Assign)
			stale = 0
		} else {
			stale++
			if stale >= tabuPatience {
				// Long hop: random restart, clear the tabu state.
				for task := range cur.Assign {
					cur.Assign[task] = src.Intn(nM)
				}
				loads, curMS, err = machineLoads(in, cur)
				if err != nil {
					return sched.Mapping{}, err
				}
				for i := range tabuUntil {
					for j := range tabuUntil[i] {
						tabuUntil[i][j] = 0
					}
				}
				stale = 0
			}
		}
	}
	return best, nil
}

// startMapping returns the search start, which the walk then owns: a copy
// of the validated seed if given, otherwise the MCT mapping.
func startMapping(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, seed sched.Mapping) (sched.Mapping, error) {
	if seed.Assign != nil {
		if err := seed.Validate(in); err != nil {
			return sched.Mapping{}, err
		}
		return seed.Clone(), nil
	}
	return (MCT{}).MapInto(in, tb, sc, nil)
}

// machineLoads returns per-machine completion times and the makespan of a
// mapping.
func machineLoads(in *sched.Instance, mp sched.Mapping) ([]float64, float64, error) {
	if err := mp.Validate(in); err != nil {
		return nil, 0, err
	}
	loads := in.ReadyTimes()
	for t, m := range mp.Assign {
		loads[m] += in.ETC().At(t, m)
	}
	return loads, maxOf(loads), nil
}

func maxOf(xs []float64) float64 {
	mx := math.Inf(-1)
	for _, x := range xs {
		if x > mx {
			mx = x
		}
	}
	return mx
}

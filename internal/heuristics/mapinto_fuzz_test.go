package heuristics

import (
	"reflect"
	"testing"

	"repro/internal/etc"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// greedyHeuristics are the greedy heuristics, with the registry's
// parameters.
var greedyHeuristics = []Heuristic{
	OLB{}, MET{}, MCT{}, MinMin{}, MaxMin{}, Duplex{}, Sufferage{},
	KPercentBest{Percent: 70}, SWA{Low: 0.33, High: 0.49},
}

// fuzzHeuristics constructs every registry heuristic: the greedy ones as
// registered, the search heuristics on budgets small enough for a fuzz
// input to take microseconds. A search heuristic advances its random
// stream on every run, so each comparison builds a fresh value.
func fuzzHeuristics() []func() Heuristic {
	var mks []func() Heuristic
	for _, h := range greedyHeuristics {
		mks = append(mks, func() Heuristic { return h })
	}
	return append(mks,
		func() Heuristic { return NewGenitor(GenitorConfig{PopulationSize: 6, Steps: 10}, 5) },
		func() Heuristic { return NewGeneticAlgorithm(GAConfig{PopulationSize: 6, Generations: 3}, 5) },
		func() Heuristic { return NewSimulatedAnnealing(SAConfig{Steps: 40}, 5) },
		func() Heuristic { return NewTabuSearch(TabuConfig{MaxSteps: 6}, 5) },
	)
}

// fuzzInstance decodes a small instance and a tie policy from data:
// data[0] and data[1] pick 1..16 tasks and 1..8 machines; data[2] picks
// the policy (low two bits: first, last, random), float cells (bit 2;
// else integer cells in 1..5, where ties are everywhere) and non-zero
// ready times (bit 3); data[3] seeds the random policy; the rest are the
// cells and ready times, cycled.
func fuzzInstance(data []byte) (*sched.Instance, func() tiebreak.Policy) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	tasks, machines, flags, seed := 1+int(at(0))%16, 1+int(at(1))%8, at(2), uint64(at(3))
	body := data[min(len(data), 4):]
	cell := func(i int) byte {
		if len(body) == 0 {
			return 0
		}
		return body[i%len(body)]
	}
	vs := make([][]float64, tasks)
	for t := range vs {
		vs[t] = make([]float64, machines)
		for m := range vs[t] {
			b := cell(t*machines + m)
			if flags&4 != 0 {
				vs[t][m] = 1 + float64(b)/7
			} else {
				vs[t][m] = float64(1 + b%5)
			}
		}
	}
	var ready []float64
	if flags&8 != 0 {
		ready = make([]float64, machines)
		for m := range ready {
			ready[m] = float64(cell(tasks*machines+m) % 4)
		}
	}
	in := sched.MustInstance(etc.MustNew(vs), ready)
	policy := func() tiebreak.Policy {
		switch flags % 4 {
		case 1:
			return tiebreak.Last{}
		case 2, 3:
			return tiebreak.NewRandom(rng.New(seed))
		}
		return tiebreak.First{}
	}
	return in, policy
}

// dirty grows sc and returns a dst buffer by mapping a larger instance than
// any fuzzInstance with every heuristic, so that a later run on a small
// instance finds both full of stale state.
func dirty(t *testing.T, sc *Scratch) []int {
	m, err := etc.GenerateRange(etc.RangeParams{Tasks: 24, Machines: 9, TaskHet: 100, MachineHet: 10}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	big := sched.MustInstance(m, []float64{2, 0, 1, 3, 0, 0, 1, 2, 0})
	var dst []int
	for _, mk := range fuzzHeuristics() {
		mp, err := mk().MapInto(big, tiebreak.NewRandom(rng.New(9)), sc, dst)
		if err != nil {
			t.Fatal(err)
		}
		dst = mp.Assign
	}
	return dst
}

// FuzzMapInto holds every registry heuristic's MapInto, and Seeded's over
// each, on a Scratch and a dst dirtied by a larger instance, to the same
// heuristic on a fresh Scratch and to its Map: the same mapping and the
// same tie-candidate sequence, with the result aliasing dst. Where
// reference.go keeps the seed implementation (Min-Min, Max-Min, Duplex,
// Sufferage) the run must equal it too. Every Seedable one (Seeded and
// the search heuristics), with a seed from the data, is held the same way
// in MapSeededInto; its result must alias dst and not the seed.
func FuzzMapInto(f *testing.F) {
	covered := map[reflect.Type]bool{}
	for _, mk := range fuzzHeuristics() {
		covered[reflect.TypeOf(mk())] = true
	}
	for _, name := range Names() {
		h, err := ByName(name, 1)
		if err != nil {
			f.Fatal(err)
		}
		if !covered[reflect.TypeOf(h)] {
			f.Fatalf("registry heuristic %s has no fuzzHeuristics entry", name)
		}
	}
	f.Add([]byte{5, 3, 0, 1, 1, 2, 3, 4, 5})
	f.Add([]byte{15, 7, 2, 9, 4, 4, 4, 4, 1, 2})
	f.Add([]byte{0, 0, 1, 0})
	f.Add([]byte{9, 4, 14, 7, 200, 13, 77, 5, 91, 18, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, policy := fuzzInstance(data)
		var sc Scratch
		dst := dirty(t, &sc)
		// record runs f under a fresh recorded policy and keeps a copy of
		// its mapping.
		type result struct {
			assign []int
			ties   [][]int
			picks  []int
		}
		record := func(f func(tb tiebreak.Policy) (sched.Mapping, error)) result {
			rec := tiebreak.NewRecorder(policy())
			mp, err := f(rec)
			if err != nil {
				t.Fatal(err)
			}
			if err := mp.Validate(in); err != nil {
				t.Fatal(err)
			}
			return result{append([]int(nil), mp.Assign...), rec.Ties, rec.Picks}
		}
		// intoDst checks that a run's mapping aliases dst, which holds it,
		// and not the seed.
		intoDst := func(name string, mp sched.Mapping, seed []int) {
			if &mp.Assign[0] != &dst[0] {
				t.Fatalf("%s: the mapping does not alias a dst that holds it", name)
			}
			if seed != nil && &mp.Assign[0] == &seed[0] {
				t.Fatalf("%s: the mapping aliases the seed", name)
			}
		}
		seed := sched.NewMapping(in.Tasks())
		for i := range seed.Assign {
			seed.Assign[i] = (i + len(data)) % in.Machines()
		}
		for _, base := range fuzzHeuristics() {
			for _, mk := range []func() Heuristic{base, func() Heuristic { return Seeded{Inner: base()} }} {
				name := mk().Name()
				got := record(func(tb tiebreak.Policy) (sched.Mapping, error) {
					mp, err := mk().MapInto(in, tb, &sc, dst)
					if err == nil {
						intoDst(name, mp, nil)
					}
					return mp, err
				})
				fresh := record(func(tb tiebreak.Policy) (sched.Mapping, error) { return mk().MapInto(in, tb, new(Scratch), nil) })
				viaMap := record(func(tb tiebreak.Policy) (sched.Mapping, error) { return mk().Map(in, tb) })
				if !reflect.DeepEqual(got, fresh) || !reflect.DeepEqual(got, viaMap) {
					t.Fatalf("%s on %v: dirty MapInto %+v, fresh MapInto %+v, Map %+v", name, data, got, fresh, viaMap)
				}
				if ref := referenceOf(mk()); ref != nil {
					if want := record(func(tb tiebreak.Policy) (sched.Mapping, error) { return ref(in, tb) }); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s on %v: MapInto %+v, reference %+v", name, data, got, want)
					}
				}
				sd, ok := mk().(Seedable)
				if !ok {
					continue
				}
				gotSeeded := record(func(tb tiebreak.Policy) (sched.Mapping, error) {
					mp, err := sd.MapSeededInto(in, tb, &sc, seed, dst)
					if err == nil {
						intoDst(name, mp, seed.Assign)
					}
					return mp, err
				})
				freshSeeded := record(func(tb tiebreak.Policy) (sched.Mapping, error) {
					return mk().(Seedable).MapSeededInto(in, tb, new(Scratch), seed, nil)
				})
				if !reflect.DeepEqual(gotSeeded, freshSeeded) {
					t.Fatalf("%s on %v: dirty MapSeededInto %+v, fresh MapSeededInto %+v", name, data, gotSeeded, freshSeeded)
				}
			}
		}
	})
}

// referenceOf returns reference.go's implementation of h, or nil where it
// keeps none.
func referenceOf(h Heuristic) func(*sched.Instance, tiebreak.Policy) (sched.Mapping, error) {
	switch h.(type) {
	case MinMin:
		return func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
			return referenceGreedyTwoPhase(in, tb, false)
		}
	case MaxMin:
		return func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
			return referenceGreedyTwoPhase(in, tb, true)
		}
	case Duplex:
		return referenceDuplex
	case Sufferage:
		return func(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
			mp, _, err := referenceSufferage(in, tb)
			return mp, err
		}
	}
	return nil
}

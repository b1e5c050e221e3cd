package core

import (
	"testing"

	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Iterate's allocation guard: each trace owns one arena (the restricted
// instance, the seed, the Iterations' backing arrays), so a trace may
// allocate a fixed amount plus a fixed amount per iteration — never per
// task. The per-iteration budget covers one heuristic Map (at most 8, the
// internal/heuristics guard) and what Seeded adds.
const (
	iterateFixedAllocs   = 24
	iterateAllocsPerIter = 8
)

func TestIterateAllocsIndependentOfTasks(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random, so the kernels' scratch refills are not counted reproducibly; the non-race run enforces the bound")
	}
	// The large shape runs each heuristic plain, once after the warm-up:
	// Iterate on 1024x64 takes 0.2-0.5 s per batch heuristic. Seeded adds a
	// completion vector and at most one clone per iteration whatever the
	// shape, and is checked on 64x8.
	for _, sh := range []struct {
		tasks, machines, runs int
		seeded                bool
	}{{64, 8, 50, true}, {1024, 64, 1, false}} {
		m, err := etc.GenerateRange(etc.RangeParams{
			Tasks: sh.tasks, Machines: sh.machines, TaskHet: 100, MachineHet: 10,
		}, rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		in, err := sched.NewInstance(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range corpusHeuristics {
			base, err := heuristics.ByName(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			hs := []heuristics.Heuristic{base}
			if sh.seeded {
				hs = append(hs, heuristics.Seeded{Inner: base})
			}
			for _, h := range hs {
				iters := 0
				allocs := testing.AllocsPerRun(sh.runs, func() {
					tr, err := Iterate(in, h, Deterministic())
					if err != nil {
						t.Fatal(err)
					}
					iters = len(tr.Iterations)
				})
				if bound := float64(iterateFixedAllocs + iterateAllocsPerIter*iters); allocs > bound {
					t.Errorf("Iterate(%s) on %dx%d: %v allocs over %d iterations, want <= %v",
						h.Name(), sh.tasks, sh.machines, allocs, iters, bound)
				}
			}
		}
	}
}

// derivedAllocSlack is what a whole tie-free trace of a restricting
// heuristic may allocate beyond its original mapping alone: the arena's
// backing arrays may be regrown a few times as the active sets shrink.
const derivedAllocSlack = 4

// TestDerivedIterationsAllocateNothing: once the original mapping of a
// restricting heuristic is tie-free, every later iteration is derived, so
// the 64-iteration trace allocates what its first iteration does plus a
// constant — not a heuristic run per iteration.
func TestDerivedIterationsAllocateNothing(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random; the non-race run enforces the bound")
	}
	m, err := etc.GenerateRange(etc.RangeParams{Tasks: 1024, Machines: 64, TaskHet: 100, MachineHet: 10}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []heuristics.Heuristic{heuristics.MinMin{}, heuristics.MCT{}} {
		allocs := func(maxIters int) (float64, int) {
			iters := 0
			a := testing.AllocsPerRun(2, func() {
				tr, err := IterateOpts(in, h, Deterministic(), Options{MaxIterations: maxIters})
				if err != nil {
					t.Fatal(err)
				}
				iters = len(tr.Iterations)
			})
			return a, iters
		}
		first, _ := allocs(1)
		all, iters := allocs(0)
		if iters != 64 {
			t.Fatalf("%s: %d iterations, want 64", h.Name(), iters)
		}
		if all > first+derivedAllocSlack {
			t.Errorf("%s on 1024x64: %v allocs over %d iterations, want <= %v (iteration 0 alone: %v)",
				h.Name(), all, iters, first+derivedAllocSlack, first)
		}
	}
}

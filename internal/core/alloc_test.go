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

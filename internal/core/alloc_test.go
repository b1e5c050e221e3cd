package core

import (
	"runtime"
	"testing"

	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
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

// roundRobin maps task i to machine i mod m into the caller's dst: a
// Seedable heuristic that allocates nothing once dst holds the mapping, so
// a trace's allocations under it are the engine's own.
type roundRobin struct{}

func (*roundRobin) Name() string { return "round-robin" }

func (r *roundRobin) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return r.MapInto(in, tb, nil, nil)
}

func (*roundRobin) MapInto(in *sched.Instance, _ tiebreak.Policy, _ *heuristics.Scratch, dst []int) (sched.Mapping, error) {
	if cap(dst) < in.Tasks() {
		dst = make([]int, in.Tasks())
	}
	a := dst[:in.Tasks()]
	for i := range a {
		a[i] = i % in.Machines()
	}
	return sched.Mapping{Assign: a}, nil
}

func (r *roundRobin) MapSeededInto(in *sched.Instance, tb tiebreak.Policy, sc *heuristics.Scratch, _ sched.Mapping, dst []int) (sched.Mapping, error) {
	return r.MapInto(in, tb, sc, dst)
}

// TestWarmWorkspaceAllocatesOnlyHeuristicRuns: a second Iterate on a warm
// Workspace allocates only what the heuristic's runs allocate. Under a
// heuristic that allocates nothing the whole trace allocates nothing — for
// every option set, and for a smaller shape than the one that warmed the
// workspace — and so does a trace under each corpus heuristic, plain or
// seeded, whose runs map into the workspace's scratch and the trace's own
// storage, and whose name costs nothing.
func TestWarmWorkspaceAllocatesOnlyHeuristicRuns(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random, so the kernels' scratch refills are not counted reproducibly; the non-race run enforces the bound")
	}
	shape := func(tasks, machines int) *sched.Instance {
		m, err := etc.GenerateRange(etc.RangeParams{
			Tasks: tasks, Machines: machines, TaskHet: 100, MachineHet: 10,
		}, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		return sched.MustInstance(m, nil)
	}
	big, small := shape(256, 32), shape(64, 8)
	var ws Workspace
	rr := &roundRobin{}
	for _, in := range []*sched.Instance{big, small} {
		for _, o := range corpusOptions {
			if _, err := ws.Iterate(in, rr, Deterministic(), o.opts); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(5, func() {
				if _, err := ws.Iterate(in, rr, Deterministic(), o.opts); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("round-robin on %dx%d, %s: a warm workspace allocates %v per trace, want 0",
					in.Tasks(), in.Machines(), o.label, got)
			}
		}
	}
	// The small shape fits what the big one grew: not even its first
	// trace allocates. AllocsPerRun(1) runs twice, so grow two workspaces.
	grown := make([]Workspace, 2)
	for i := range grown {
		if _, err := grown[i].Iterate(big, rr, Deterministic(), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	if got := testing.AllocsPerRun(1, func() {
		if _, err := grown[next].Iterate(small, rr, Deterministic(), Options{}); err != nil {
			t.Fatal(err)
		}
		next++
	}); got != 0 {
		t.Errorf("a 64x8 trace on a workspace grown by 256x32 allocates %v, want 0", got)
	}

	for _, name := range corpusHeuristics {
		base, err := heuristics.ByName(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []heuristics.Heuristic{base, heuristics.Seeded{Inner: base}} {
			tr, err := ws.Iterate(small, h, Deterministic(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			iters := len(tr.Iterations)
			if got := testing.AllocsPerRun(20, func() {
				if _, err := ws.Iterate(small, h, Deterministic(), Options{}); err != nil {
					t.Fatal(err)
				}
			}); got != 0 {
				t.Errorf("%s on a warm workspace: %v allocs over %d iterations, want 0",
					h.Name(), got, iters)
			}
		}
	}
}

// TestShortTraceAllocatesWhatItCarves: a trace holds O(what it carves), not
// the M(M+1)/2 triangle of every iteration that could run. One task over
// 1000 machines runs one iteration under MCT; its trace needs about 1000
// completion floats and 1002 ints, so the whole run stays far under the
// 8 MB the triangle would reserve.
func TestShortTraceAllocatesWhatItCarves(t *testing.T) {
	row := make([][]float64, 1)
	row[0] = make([]float64, 1000)
	for m := range row[0] {
		row[0][m] = float64(1 + m%7)
	}
	in := sched.MustInstance(etc.MustNew(row), nil)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		tr, err := IterateOpts(in, heuristics.MCT{}, Deterministic(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Iterations) != 1 {
			t.Fatalf("%d iterations, want 1", len(tr.Iterations))
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 128<<10 {
		t.Errorf("1x1000 MCT trace allocates %d B, want < 128 KiB", per)
	}
}

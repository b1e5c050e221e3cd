package hcsched_test

import (
	"fmt"

	hcsched "repro"
)

// The paper's core loop: map, freeze the makespan machine, re-map.
func Example() {
	m := hcsched.MustETC([][]float64{
		{4, 9, 9},
		{9, 2, 2},
		{9, 9, 3},
	})
	in, _ := hcsched.NewInstance(m, nil)
	h, _ := hcsched.NewHeuristic("min-min", 0)
	trace, _ := hcsched.Iterate(in, h, hcsched.DeterministicTies())
	fmt.Printf("makespan %g -> %g, iterations %d\n",
		trace.OriginalMakespan(), trace.FinalMakespan(), len(trace.Iterations))
	// Output:
	// makespan 4 -> 4, iterations 3
}

// Deterministic ties keep Min-Min invariant (the paper's theorem); a
// scripted random tie can make things worse.
func ExampleIterate_theorem() {
	m := hcsched.MustETC([][]float64{
		{2, 2, 5},
		{1, 3, 4},
		{5, 3, 3},
		{5, 5, 4},
	})
	in, _ := hcsched.NewInstance(m, nil)
	h, _ := hcsched.NewHeuristic("mct", 0)
	trace, _ := hcsched.Iterate(in, h, hcsched.DeterministicTies())
	fmt.Println("changed:", trace.Changed(), "worse:", trace.MakespanIncreased())
	// Output:
	// changed: false worse: false
}

// Seeding any heuristic guarantees the technique cannot increase makespan
// (the paper's concluding proposal).
func ExampleSeeded() {
	m, _ := hcsched.GenerateETC(hcsched.WorkloadClass{HighTaskHet: true}, 12, 4, 7)
	in, _ := hcsched.NewInstance(m, nil)
	h, _ := hcsched.NewHeuristic("sufferage", 0)
	trace, _ := hcsched.Iterate(in, hcsched.Seeded(h), hcsched.RandomTies(1))
	fmt.Println("makespan increased:", trace.MakespanIncreased())
	// Output:
	// makespan increased: false
}

// Lower bounds and the exact solver certify heuristic quality.
func ExampleSolveExact() {
	m := hcsched.MustETC([][]float64{
		{2, 9},
		{9, 2},
		{3, 3},
	})
	in, _ := hcsched.NewInstance(m, nil)
	res, _ := hcsched.SolveExact(in)
	fmt.Printf("optimal makespan %g (lower bound %g)\n", res.Makespan, hcsched.LowerBound(in))
	// Output:
	// optimal makespan 5 (lower bound 3.5)
}

// The dynamic environment the paper's online heuristics come from.
func ExampleSimulateImmediate() {
	w, _ := hcsched.GeneratePoissonWorkload(hcsched.WorkloadClass{}, 50, 4, 10, 3)
	res, _ := hcsched.SimulateImmediate(w, hcsched.ImmediateConfig{Rule: hcsched.ImmediateMCT})
	fmt.Println("all tasks mapped:", res.MappingEvents == 50)
	// Output:
	// all tasks mapped: true
}

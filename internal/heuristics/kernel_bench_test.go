package heuristics

import (
	"fmt"
	"testing"

	"repro/internal/etc"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// Kernel-vs-reference microbenchmarks: the differential tests pin behavior,
// these pin the speedup. The 4096×128 shape runs the kernel legs only: the
// O(T²·M) reference is too slow there. Run with
//
//	go test -bench BenchmarkKernelVsReference -benchmem ./internal/heuristics
func benchWorkload(b *testing.B, tasks, machines int) *sched.Instance {
	b.Helper()
	m, err := etc.GenerateRange(etc.RangeParams{
		Tasks: tasks, Machines: machines, TaskHet: 100, MachineHet: 10,
	}, rng.New(42))
	if err != nil {
		b.Fatal(err)
	}
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

func BenchmarkKernelVsReference(b *testing.B) {
	for _, shape := range []struct {
		tasks, machines int
		reference       bool
	}{{128, 8, true}, {256, 32, true}, {512, 16, true}, {4096, 128, false}} {
		in := benchWorkload(b, shape.tasks, shape.machines)
		b.Run(fmt.Sprintf("minmin-kernel-%dx%d", shape.tasks, shape.machines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (MinMin{}).Map(in, tiebreak.First{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sufferage-kernel-%dx%d", shape.tasks, shape.machines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := (Sufferage{}).Map(in, tiebreak.First{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		if !shape.reference {
			continue
		}
		b.Run(fmt.Sprintf("minmin-reference-%dx%d", shape.tasks, shape.machines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := referenceGreedyTwoPhase(in, tiebreak.First{}, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sufferage-reference-%dx%d", shape.tasks, shape.machines), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := referenceSufferage(in, tiebreak.First{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

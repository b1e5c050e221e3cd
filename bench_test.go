// Benchmarks regenerating every table and figure of the paper (see
// DESIGN.md for the experiment index), plus heuristic and engine throughput
// benchmarks on literature-scale workloads.
//
//	go test -bench=. -benchmem
package hcsched_test

import (
	"fmt"
	"testing"

	hcsched "repro"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/counterexample"
	"repro/internal/etc"
	"repro/internal/experiments"
	"repro/internal/gantt"
	"repro/internal/heuristics"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// --- example-table benchmarks (Tables 1-17, Figures 3-19) -------------------

func benchIterate(b *testing.B, m *etc.Matrix, h heuristics.Heuristic) {
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Iterate(in, h, core.Deterministic()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchExplore(b *testing.B, m *etc.Matrix, h heuristics.Heuristic) {
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := counterexample.ExploreTiePaths(in, h, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable01_MinMinETC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.MinMinExampleETC()
	}
}

func BenchmarkTable02_MinMinOriginal(b *testing.B) {
	benchIterate(b, experiments.MinMinExampleETC(), heuristics.MinMin{})
}

func BenchmarkTable03_MinMinIterative(b *testing.B) {
	benchExplore(b, experiments.MinMinExampleETC(), heuristics.MinMin{})
}

func BenchmarkTable04_MCTMETETC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.MCTMETExampleETC()
	}
}

func BenchmarkTable05_MCTOriginal(b *testing.B) {
	benchIterate(b, experiments.MCTMETExampleETC(), heuristics.MCT{})
}

func BenchmarkTable06_MCTIterative(b *testing.B) {
	benchExplore(b, experiments.MCTMETExampleETC(), heuristics.MCT{})
}

func BenchmarkTable07_METOriginal(b *testing.B) {
	benchIterate(b, experiments.MCTMETExampleETC(), heuristics.MET{})
}

func BenchmarkTable08_METIterative(b *testing.B) {
	benchExplore(b, experiments.MCTMETExampleETC(), heuristics.MET{})
}

func BenchmarkTable09_SWAETC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.SWAExampleETC()
	}
}

func swaExample() heuristics.SWA {
	return heuristics.SWA{Low: heuristics.PaperSWALow, High: heuristics.PaperSWAHigh}
}

func BenchmarkTable10_SWAOriginal(b *testing.B) {
	benchIterate(b, experiments.SWAExampleETC(), swaExample())
}

func BenchmarkTable11_SWAIterative(b *testing.B) {
	// The SWA pathology is deterministic: the full iterative run IS the
	// regeneration of Table 11.
	benchIterate(b, experiments.SWAExampleETC(), swaExample())
}

func BenchmarkTable12_KPBETC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.KPBExampleETC()
	}
}

func BenchmarkTable13_KPBOriginal(b *testing.B) {
	benchIterate(b, experiments.KPBExampleETC(), heuristics.KPercentBest{Percent: heuristics.PaperKPercent})
}

func BenchmarkTable14_KPBIterative(b *testing.B) {
	benchIterate(b, experiments.KPBExampleETC(), heuristics.KPercentBest{Percent: heuristics.PaperKPercent})
}

func BenchmarkTable15_SufferageETC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.SufferageExampleETC()
	}
}

func BenchmarkTable16_SufferageOriginal(b *testing.B) {
	benchIterate(b, experiments.SufferageExampleETC(), heuristics.Sufferage{})
}

func BenchmarkTable17_SufferageIterative(b *testing.B) {
	benchIterate(b, experiments.SufferageExampleETC(), heuristics.Sufferage{})
}

// BenchmarkFigures_GanttRendering regenerates the mapping figures
// (Figures 3-4, 6-7, 9-12, 15-16, 18-19) as ASCII Gantt charts.
func BenchmarkFigures_GanttRendering(b *testing.B) {
	type fig struct {
		m *etc.Matrix
		h heuristics.Heuristic
	}
	figs := []fig{
		{experiments.MinMinExampleETC(), heuristics.MinMin{}},
		{experiments.MCTMETExampleETC(), heuristics.MCT{}},
		{experiments.MCTMETExampleETC(), heuristics.MET{}},
		{experiments.SWAExampleETC(), swaExample()},
		{experiments.KPBExampleETC(), heuristics.KPercentBest{Percent: heuristics.PaperKPercent}},
		{experiments.SufferageExampleETC(), heuristics.Sufferage{}},
	}
	schedules := make([]*sched.Schedule, 0, len(figs))
	for _, f := range figs {
		in, err := sched.NewInstance(f.m, nil)
		if err != nil {
			b.Fatal(err)
		}
		mp, err := f.h.Map(in, tiebreak.First{})
		if err != nil {
			b.Fatal(err)
		}
		s, err := sched.Evaluate(in, mp)
		if err != nil {
			b.Fatal(err)
		}
		schedules = append(schedules, s)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range schedules {
			_ = gantt.Render(s, gantt.Options{Width: 56})
		}
	}
}

// --- full-experiment benchmarks (E1-E10) ------------------------------------

// BenchmarkExperiments regenerates each complete paper experiment, checks
// included (sized-down where the default is heavyweight).
func BenchmarkExperiments(b *testing.B) {
	cases := []struct {
		name string
		run  func() (*experiments.Report, error)
	}{
		{"E1_MinMinExample", experiments.RunMinMinExample},
		{"E2_MCTExample", experiments.RunMCTExample},
		{"E3_METExample", experiments.RunMETExample},
		{"E4_SWAExample", experiments.RunSWAExample},
		{"E5_KPBExample", experiments.RunKPBExample},
		{"E6_SufferageExample", experiments.RunSufferageExample},
		{"E7_GenitorNeverWorse", experiments.RunGenitorMonotone},
		{"E8_TheoremInvariance", func() (*experiments.Report, error) {
			return experiments.RunTheoremVerificationSized(20)
		}},
		{"E9_SeededMonotone", func() (*experiments.Report, error) {
			return experiments.RunSeededMonotoneSized(10)
		}},
		{"E10_SweepStudy", func() (*experiments.Report, error) {
			return experiments.RunMonteCarloStudySized(10, 12, 4)
		}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := tc.run()
				if err != nil {
					b.Fatal(err)
				}
				if failed := rep.Failed(); len(failed) > 0 {
					b.Fatalf("%s: %d checks failed", rep.ID, len(failed))
				}
			}
		})
	}
}

// --- throughput benchmarks ----------------------------------------------------

// literatureWorkload is the canonical 512x16 shape of the Braun et al.
// comparison study, scaled per benchmark below.
func literatureWorkload(b *testing.B, tasks, machines int) *sched.Instance {
	b.Helper()
	m, err := hcsched.GenerateETC(
		hcsched.WorkloadClass{HighTaskHet: true, HighMachineHet: true},
		tasks, machines, 42)
	if err != nil {
		b.Fatal(err)
	}
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkHeuristicMap measures single-mapping throughput per heuristic on
// a 512x16 workload (Genitor on a smaller budget: it is a search, not a
// sweep).
func BenchmarkHeuristicMap(b *testing.B) {
	in := literatureWorkload(b, 512, 16)
	for _, name := range heuristics.Names() {
		b.Run(name, func(b *testing.B) {
			h, err := heuristics.ByName(name, 7)
			if err != nil {
				b.Fatal(err)
			}
			if name == "genitor" {
				h = heuristics.NewGenitor(heuristics.GenitorConfig{PopulationSize: 20, Steps: 50}, 7)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.Map(in, tiebreak.First{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// tieWorkload is a tasks×machines matrix of small integers (1..5), so exact
// completion-time ties arise in every iteration.
func tieWorkload(b *testing.B, tasks, machines int) *sched.Instance {
	b.Helper()
	src := rng.New(42)
	vs := make([][]float64, tasks)
	for i := range vs {
		vs[i] = make([]float64, machines)
		for j := range vs[i] {
			vs[i][j] = float64(1 + src.Intn(5))
		}
	}
	in, err := sched.NewInstance(etc.MustNew(vs), nil)
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkIterativeTechnique measures the full technique (all iterations)
// for each polynomial-time heuristic on a 128x8 workload with deterministic
// ties, and on 128x16 with seeded random ties (the largest shape of the
// perfbench engine-miss workload; each run draws a fresh tie stream, as a
// served request does). On these float matrices the original mapping has no
// tie, so Min-Min, MCT, MET and OLB derive every later iteration; the
// -ties rows keep their computed slow path measured on a tie-dense
// small-integer matrix. The <heuristic>-<T>x<M>-hihi-{c,i} rows run the
// perfbench engine-miss shapes and heuristics in one reused Workspace, as
// a serve worker does, on a consistent and an inconsistent class.
func BenchmarkIterativeTechnique(b *testing.B) {
	det := literatureWorkload(b, 128, 8)
	wide := literatureWorkload(b, 128, 16)
	ties := tieWorkload(b, 128, 16)
	for _, name := range []string{"olb", "met", "mct", "min-min", "max-min", "duplex", "sufferage", "kpb", "swa"} {
		h, err := heuristics.ByName(name, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.Iterate(det, h, core.Deterministic()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"-128x16-random", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				policy := core.FixedPolicy(tiebreak.NewRandom(rng.New(7)))
				if _, err := core.Iterate(wide, h, policy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The engine-miss shapes, on one consistent and one inconsistent class:
	// a consistent matrix re-scans far more kernel rows per commit.
	for _, class := range []hcsched.WorkloadClass{
		{HighTaskHet: true, HighMachineHet: true, Consistency: etc.Consistent},
		{HighTaskHet: true, HighMachineHet: true, Consistency: etc.Inconsistent},
	} {
		for _, shape := range [][2]int{{32, 4}, {64, 8}, {128, 16}} {
			m, err := hcsched.GenerateETC(class, shape[0], shape[1], 42)
			if err != nil {
				b.Fatal(err)
			}
			in, err := sched.NewInstance(m, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range []string{"min-min", "max-min", "duplex", "sufferage", "mct", "kpb", "swa"} {
				h, err := heuristics.ByName(name, 7)
				if err != nil {
					b.Fatal(err)
				}
				var w core.Workspace
				b.Run(fmt.Sprintf("%s-%dx%d-%s", name, shape[0], shape[1], class.Label()), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						policy := core.FixedPolicy(tiebreak.NewRandom(rng.New(7)))
						if _, err := w.Iterate(in, h, policy, core.Options{}); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
	for _, name := range []string{"min-min", "mct"} {
		h, err := heuristics.ByName(name, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"-128x16-ties", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				policy := core.FixedPolicy(tiebreak.NewRandom(rng.New(7)))
				if _, err := core.Iterate(ties, h, policy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchKernel measures single-mapping throughput of the
// incremental completion-time kernel (internal/heuristics/kernel.go) across
// workload shapes: the batch heuristics' per-round cost is now dominated by
// the O(T) column refresh instead of the seed's O(T·M) full recomputation,
// so growing the machine count should barely move ns/op.
func BenchmarkBatchKernel(b *testing.B) {
	for _, shape := range []struct{ tasks, machines int }{{256, 8}, {256, 32}, {512, 16}} {
		in := literatureWorkload(b, shape.tasks, shape.machines)
		for _, name := range []string{"min-min", "max-min", "duplex", "sufferage"} {
			b.Run(fmt.Sprintf("%s-%dx%d", name, shape.tasks, shape.machines), func(b *testing.B) {
				h, err := heuristics.ByName(name, 7)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := h.Map(in, tiebreak.First{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkIterateScaling shows how the technique scales with machine count
// (iterations are linear in machines; each Min-Min mapping is O(T^2 M)).
func BenchmarkIterateScaling(b *testing.B) {
	for _, machines := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("minmin-256x%d", machines), func(b *testing.B) {
			in := literatureWorkload(b, 256, machines)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Iterate(in, heuristics.MinMin{}, core.Deterministic()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCounterexampleSearch measures the searcher's candidate
// throughput (it is the tool that reconstructed the paper's tables).
func BenchmarkCounterexampleSearch(b *testing.B) {
	target := counterexample.Target{
		Heuristic:         func() heuristics.Heuristic { return heuristics.Sufferage{} },
		DeterministicOnly: true,
	}
	gen := counterexample.GridGenerator(5, 3, counterexample.IntGrid(6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counterexample.Search(target, gen, 2000, uint64(i))
	}
}

// BenchmarkETCGeneration measures workload-generator throughput.
func BenchmarkETCGeneration(b *testing.B) {
	b.Run("range-512x16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := hcsched.GenerateETC(hcsched.WorkloadClass{HighTaskHet: true, HighMachineHet: true}, 512, 16, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- ablation benchmarks -------------------------------------------------------

// BenchmarkAblationFreezeRule compares the paper's makespan-machine freeze
// rule against the min-completion ablation (DESIGN.md §5).
func BenchmarkAblationFreezeRule(b *testing.B) {
	in := literatureWorkload(b, 96, 6)
	for _, tc := range []struct {
		name string
		rule core.FreezeRule
	}{
		{"paper-makespan", core.FreezeMakespan},
		{"ablation-min-completion", core.FreezeMinCompletion},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.IterateOpts(in, heuristics.Sufferage{}, core.Deterministic(),
					core.Options{FreezeRule: tc.rule}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIterationDepth compares the full technique against a cap
// of two iterations (original + first iterative mapping, the paper's
// example setting).
func BenchmarkAblationIterationDepth(b *testing.B) {
	in := literatureWorkload(b, 96, 8)
	for _, tc := range []struct {
		name string
		cap  int
	}{
		{"first-iteration-only", 2},
		{"full-technique", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.IterateOpts(in, heuristics.MinMin{}, core.Deterministic(),
					core.Options{MaxIterations: tc.cap}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- dynamic-environment benchmarks --------------------------------------------

// BenchmarkDynamicSimulation measures the dynamic-arrival simulator in both
// modes on a 256-task Poisson workload.
func BenchmarkDynamicSimulation(b *testing.B) {
	w, err := hcsched.GeneratePoissonWorkload(
		hcsched.WorkloadClass{HighTaskHet: true}, 256, 8, 100, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("immediate-mct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hcsched.SimulateImmediate(w, hcsched.ImmediateConfig{Rule: hcsched.ImmediateMCT}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("immediate-swa", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hcsched.SimulateImmediate(w, hcsched.ImmediateConfig{Rule: hcsched.ImmediateSWA}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-minmin", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hcsched.SimulateBatch(w, hcsched.BatchConfig{Heuristic: heuristics.MinMin{}, Interval: 500}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("batch-sufferage", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := hcsched.SimulateBatch(w, hcsched.BatchConfig{Heuristic: heuristics.Sufferage{}, Interval: 500}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMetaheuristics measures the search baselines (SA, generational
// GA, tabu) on a 64x8 workload at their default budgets.
func BenchmarkMetaheuristics(b *testing.B) {
	in := literatureWorkload(b, 64, 8)
	for _, name := range []string{"sa", "ga", "tabu"} {
		b.Run(name, func(b *testing.B) {
			h, err := heuristics.ByName(name, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := h.Map(in, tiebreak.First{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- bounds / exact-solver benchmarks -------------------------------------------

// BenchmarkBounds measures lower-bound computation on a 256x8 workload.
func BenchmarkBounds(b *testing.B) {
	in := literatureWorkload(b, 256, 8)
	b.Run("lp-relaxation", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bounds.LPRelaxation(in)
		}
	})
	b.Run("best", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = bounds.Best(in)
		}
	})
}

// BenchmarkExactSolve measures the branch-and-bound solver on paper-scale
// and small study-scale instances.
func BenchmarkExactSolve(b *testing.B) {
	for _, shape := range []struct{ tasks, machines int }{{8, 3}, {12, 4}} {
		b.Run(fmt.Sprintf("%dx%d", shape.tasks, shape.machines), func(b *testing.B) {
			in := literatureWorkload(b, shape.tasks, shape.machines)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := opt.Solve(in)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Optimal {
					b.Fatal("not solved to optimality")
				}
			}
		})
	}
}

// BenchmarkExtensionExperiments regenerates the extension experiments E11
// and E12 at reduced size.
func BenchmarkExtensionExperiments(b *testing.B) {
	b.Run("E11_QualityComparison", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := experiments.RunQualityComparisonSized(4)
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Failed()) > 0 {
				b.Fatal("E11 checks failed")
			}
		}
	})
	b.Run("E12_Sensitivity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := experiments.RunSensitivityStudySized(6)
			if err != nil {
				b.Fatal(err)
			}
			if len(rep.Failed()) > 0 {
				b.Fatal("E12 checks failed")
			}
		}
	})
}

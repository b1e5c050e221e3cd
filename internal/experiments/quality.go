package experiments

import (
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/tiebreak"
)

// RunQualityComparison reproduces, at reduced scale, the comparison
// methodology of Braun et al. (the paper's reference [3], from which its
// MET/MCT/Min-Min implementations are adapted): all heuristics on the same
// random workloads, reported as makespan ratios to the strongest lower
// bound, plus true optimality gaps on small instances via exact branch and
// bound.
func RunQualityComparison() (*Report, error) {
	return RunQualityComparisonSized(20)
}

// RunQualityComparisonSized is RunQualityComparison with a configurable
// trial count.
func RunQualityComparisonSized(trials int) (*Report, error) {
	rep := &Report{ID: "E11", Title: "Heuristic quality versus lower bounds and exact optima"}
	src := rng.New(1961)
	names := heuristics.Names()

	// Part 1: ratio to the LP lower bound on 24x6 workloads.
	ratioTo := map[string][]float64{}
	for trial := 0; trial < trials; trial++ {
		m, err := etc.GenerateClass(etc.Class{HighTaskHet: true, HighMachineHet: true, Consistency: etc.Inconsistent},
			24, 6, src)
		if err != nil {
			return nil, err
		}
		in, err := sched.NewInstance(m, nil)
		if err != nil {
			return nil, err
		}
		lb := bounds.Best(in)
		for _, name := range names {
			h, err := heuristics.ByName(name, src.Uint64())
			if err != nil {
				return nil, err
			}
			mp, err := h.Map(in, tiebreak.First{})
			if err != nil {
				return nil, err
			}
			s, err := sched.Evaluate(in, mp)
			if err != nil {
				return nil, err
			}
			ratioTo[name] = append(ratioTo[name], s.Makespan()/lb)
		}
	}

	// Part 2: true optimality gaps on 10x3 instances.
	gapTo := map[string][]float64{}
	smallTrials := trials / 2
	if smallTrials < 3 {
		smallTrials = 3
	}
	for trial := 0; trial < smallTrials; trial++ {
		m, err := etc.GenerateClass(etc.Class{Consistency: etc.Inconsistent}, 10, 3, src)
		if err != nil {
			return nil, err
		}
		in, err := sched.NewInstance(m, nil)
		if err != nil {
			return nil, err
		}
		exact, err := opt.Solve(in)
		if err != nil {
			return nil, err
		}
		if !exact.Optimal {
			continue
		}
		for _, name := range names {
			h, err := heuristics.ByName(name, src.Uint64())
			if err != nil {
				return nil, err
			}
			mp, err := h.Map(in, tiebreak.First{})
			if err != nil {
				return nil, err
			}
			s, err := sched.Evaluate(in, mp)
			if err != nil {
				return nil, err
			}
			gapTo[name] = append(gapTo[name], s.Makespan()/exact.Makespan)
		}
	}

	tb := table.New(fmt.Sprintf("Makespan quality (%d workloads of 24x6; %d of 10x3 solved exactly)", trials, smallTrials),
		"heuristic", "ratio to LP bound (24x6)", "ratio to optimum (10x3)")
	for _, name := range names {
		r, err := stats.Summarize(ratioTo[name])
		if err != nil {
			return nil, err
		}
		g, err := stats.Summarize(gapTo[name])
		if err != nil {
			return nil, err
		}
		tb.AddRow(name, fmt.Sprintf("%.3f ± %.3f", r.Mean, r.ConfidenceInterval95()),
			fmt.Sprintf("%.3f ± %.3f", g.Mean, g.ConfidenceInterval95()))
		rep.Checks = append(rep.Checks, Check{
			Name: fmt.Sprintf("%s never beats the lower bound", name),
			Want: ">= 1", Got: fmt.Sprintf("min ratio %.4f", r.Min),
			OK: r.Min >= 1-1e-9,
		}, Check{
			Name: fmt.Sprintf("%s never beats the optimum", name),
			Want: ">= 1", Got: fmt.Sprintf("min gap %.4f", g.Min),
			OK: g.Min >= 1-1e-9,
		})
	}
	// Structural expectation from the literature: Min-Min family beats OLB.
	mm, err := stats.Summarize(ratioTo["min-min"])
	if err != nil {
		return nil, err
	}
	olb, err := stats.Summarize(ratioTo["olb"])
	if err != nil {
		return nil, err
	}
	rep.Checks = append(rep.Checks, Check{
		Name: "min-min beats olb on average (Braun et al. ordering)",
		Want: "min-min < olb",
		Got:  fmt.Sprintf("%.3f vs %.3f", mm.Mean, olb.Mean),
		OK:   mm.Mean < olb.Mean,
	})
	rep.Body = tb.String()
	return rep, nil
}

// RunSensitivityStudy measures how the iterative technique's outcomes
// survive ETC estimation error — the assumption the paper flags in its
// problem statement ("the ETC values can be based on user supplied
// information, experimental data, or task profiling"). Mappings are computed
// from the estimates; realized completion times are evaluated on
// gamma-perturbed "actual" ETCs at several error levels.
func RunSensitivityStudy() (*Report, error) {
	return RunSensitivityStudySized(30)
}

// RunSensitivityStudySized is RunSensitivityStudy with a configurable trial
// count.
func RunSensitivityStudySized(trials int) (*Report, error) {
	rep := &Report{ID: "E12", Title: "Sensitivity of the technique to ETC estimation error"}
	src := rng.New(812)
	cvs := []float64{0, 0.05, 0.15, 0.3}
	h := heuristics.Sufferage{}

	type cell struct {
		inflation []float64 // realized makespan / estimated makespan
		// rankPreserved counts trials where the technique's estimated
		// verdict (final mean CT better/worse than original) matches the
		// realized verdict under the perturbed ETCs.
		rankPreserved int
		trials        int
	}
	cells := make([]cell, len(cvs))

	for trial := 0; trial < trials; trial++ {
		m, err := etc.GenerateClass(etc.Class{HighTaskHet: true, Consistency: etc.Inconsistent}, 20, 5, src)
		if err != nil {
			return nil, err
		}
		in, err := sched.NewInstance(m, nil)
		if err != nil {
			return nil, err
		}
		tr, err := core.Iterate(in, h, core.Deterministic())
		if err != nil {
			return nil, err
		}
		origAssign := make([]int, in.Tasks())
		copy(origAssign, tr.Iterations[0].Assign)
		estMakespan := tr.FinalMakespan()
		estFinal, err := tr.FinalSchedule()
		if err != nil {
			return nil, err
		}
		estOrig, err := tr.Original()
		if err != nil {
			return nil, err
		}
		estimatedGain := estFinal.MeanCompletion() <= estOrig.MeanCompletion()+1e-9

		for i, cv := range cvs {
			actual, err := m.Perturb(cv, src.Split())
			if err != nil {
				return nil, err
			}
			actualIn, err := sched.NewInstance(actual, nil)
			if err != nil {
				return nil, err
			}
			realizedFinal, err := sched.Evaluate(actualIn, sched.Mapping{Assign: tr.FinalAssign})
			if err != nil {
				return nil, err
			}
			realizedOrig, err := sched.Evaluate(actualIn, sched.Mapping{Assign: origAssign})
			if err != nil {
				return nil, err
			}
			cells[i].inflation = append(cells[i].inflation, realizedFinal.Makespan()/estMakespan)
			realizedGain := realizedFinal.MeanCompletion() <= realizedOrig.MeanCompletion()+1e-9
			if realizedGain == estimatedGain {
				cells[i].rankPreserved++
			}
			cells[i].trials++
		}
	}

	tb := table.New(fmt.Sprintf("Realized outcomes under ETC error (sufferage, %d workloads of 20x5)", trials),
		"error CV", "realized/estimated makespan", "trials where the estimated verdict survives")
	var inflationMeans []float64
	for i, cv := range cvs {
		s, err := stats.Summarize(cells[i].inflation)
		if err != nil {
			return nil, err
		}
		inflationMeans = append(inflationMeans, s.Mean)
		tb.AddRow(fmt.Sprintf("%.2f", cv),
			fmt.Sprintf("%.4f ± %.4f", s.Mean, s.ConfidenceInterval95()),
			fmt.Sprintf("%d/%d", cells[i].rankPreserved, cells[i].trials))
	}
	rep.Body = tb.String()

	rep.Checks = append(rep.Checks,
		Check{
			Name: "zero error reproduces the estimated makespan exactly",
			Want: "1.0000",
			Got:  fmt.Sprintf("%.4f", inflationMeans[0]),
			OK:   math.Abs(inflationMeans[0]-1) < 1e-9,
		},
		Check{
			Name: "makespan dispersion grows with error level",
			Want: "spread(cv=0.3) > spread(cv=0.05)",
			Got: fmt.Sprintf("%.4f vs %.4f",
				spread(cells[3].inflation), spread(cells[1].inflation)),
			OK: spread(cells[3].inflation) > spread(cells[1].inflation),
		},
		Check{
			Name: "zero-error trials all preserve the estimated verdict",
			Want: fmt.Sprintf("%d/%d", cells[0].trials, cells[0].trials),
			Got:  fmt.Sprintf("%d/%d", cells[0].rankPreserved, cells[0].trials),
			OK:   cells[0].rankPreserved == cells[0].trials,
		},
	)
	return rep, nil
}

func spread(xs []float64) float64 {
	s, err := stats.Summarize(xs)
	if err != nil {
		return 0
	}
	return s.StdDev
}

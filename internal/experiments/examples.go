package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/counterexample"
	"repro/internal/etc"
	"repro/internal/gantt"
	"repro/internal/heuristics"
	"repro/internal/sched"
	"repro/internal/table"
	"repro/internal/tiebreak"
)

// The pinned example matrices. The paper's numeric cells were lost to OCR;
// these matrices reproduce the surviving completion-time traces exactly
// (see the package comment and DESIGN.md).

// MinMinExampleETC reconstructs Table 1 (Min-Min example, 4 tasks x 3
// machines). Under deterministic ties Min-Min yields machine completion
// times {5, 2, 4}; one alternate tie path of the first iterative mapping
// yields {1, 6} on the surviving machines — the paper's (5, 1, 6).
func MinMinExampleETC() *etc.Matrix {
	return etc.MustNew([][]float64{
		{5, 3, 6},
		{4, 1, 1},
		{5, 3, 2},
		{5, 5, 4},
	})
}

// MCTMETExampleETC reconstructs Table 4, shared by the MCT and MET examples
// (4 tasks x 3 machines): both heuristics give original completion times
// {4, 3, 3}, and for both a flipped tie in the first iterative mapping gives
// {4, 1, 5}.
func MCTMETExampleETC() *etc.Matrix {
	return etc.MustNew([][]float64{
		{2, 2, 5},
		{1, 3, 4},
		{5, 3, 3},
		{5, 5, 4},
	})
}

// SWAExampleETC reconstructs Table 9 (SWA example, 5 tasks x 3 machines).
// With thresholds low=0.33, high=0.49 it reproduces the paper's balance-
// index trace (x, 0, 0, 1/3, 2/3), sub-heuristic trace (MCT x4, MET) and
// completion times (6, 5, 5) -> (6, 4, 6.5).
func SWAExampleETC() *etc.Matrix {
	return etc.MustNew([][]float64{
		{6, 7, 8},
		{9, 2, 3},
		{9, 3, 4},
		{9, 3, 2.5},
		{9, 2, 1},
	})
}

// KPBExampleETC reconstructs Table 12 (K-Percent Best example, 5 tasks x 3
// machines, k = 70%): original completion times (6, 5, 5.5); in the first
// iterative mapping only floor(2*0.7) = 1 machine is considered, so KPB
// degenerates to MET and yields (7, 3).
func KPBExampleETC() *etc.Matrix {
	return etc.MustNew([][]float64{
		{6, 7, 9},
		{9, 2, 4},
		{9, 4, 3},
		{9, 3, 4},
		{9, 2, 2.5},
	})
}

// SufferageExampleETC reconstructs Table 15 (Sufferage example, 8 tasks x 3
// machines, found by counterexample search): deterministic ties, original
// completion times {10, 9.5, 9.5}, first iterative mapping {10.5, 8.5} —
// the paper's (10, 9.5, 9.5) -> (10, 10.5, 8.5).
func SufferageExampleETC() *etc.Matrix {
	return etc.MustNew([][]float64{
		{6, 5.5, 5.5},
		{4, 4, 3},
		{2.5, 3, 4.5},
		{5.5, 4.5, 5},
		{6, 5, 4.5},
		{3, 2.5, 2},
		{4, 6, 3},
		{3, 2.5, 4},
	})
}

// --- rendering helpers -----------------------------------------------------

func renderETC(title string, m *etc.Matrix) string {
	headers := []string{"task"}
	for j := 0; j < m.Machines(); j++ {
		headers = append(headers, fmt.Sprintf("m%d", j))
	}
	tb := table.New(title, headers...)
	for t := 0; t < m.Tasks(); t++ {
		row := []interface{}{fmt.Sprintf("t%d", t)}
		for j := 0; j < m.Machines(); j++ {
			row = append(row, m.At(t, j))
		}
		tb.AddRow(row...)
	}
	return tb.String()
}

// renderIteration renders one iteration's mapping in the paper's layout:
// one row per task with its machine, then the machine completion times.
func renderIteration(title string, it core.Iteration) string {
	tb := table.New(title, "task", "machine")
	for i, t := range it.Tasks {
		tb.AddRow(fmt.Sprintf("t%d", t), fmt.Sprintf("m%d", it.Assign[i]))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	b.WriteString("completion times:")
	for j, m := range it.Machines {
		fmt.Fprintf(&b, " m%d=%.4g", m, it.Completion[j])
	}
	fmt.Fprintf(&b, "  (makespan machine m%d, makespan %.4g)\n", it.MakespanMachine, it.Makespan)
	return b.String()
}

// renderIterationGantt draws the figure for one iteration by evaluating its
// mapping on the restricted instance.
func renderIterationGantt(in *sched.Instance, it core.Iteration) (string, error) {
	sub, err := in.Restrict(it.Tasks, it.Machines)
	if err != nil {
		return "", err
	}
	local := make(map[int]int, len(it.Machines))
	for j, m := range it.Machines {
		local[m] = j
	}
	mp := sched.NewMapping(len(it.Tasks))
	for i := range it.Tasks {
		mp.Assign[i] = local[it.Assign[i]]
	}
	s, err := sched.Evaluate(sub, mp)
	if err != nil {
		return "", err
	}
	return gantt.Render(s, gantt.Options{
		Width:        56,
		MachineLabel: func(m int) string { return fmt.Sprintf("m%d", it.Machines[m]) },
		TaskLabel:    func(t int) string { return fmt.Sprintf("t%d", it.Tasks[t]) },
	}), nil
}

// --- E1-E3: random-tie examples ---------------------------------------------

// runRandomTieExample is the common driver for the Min-Min, MCT and MET
// examples: verify the deterministic invariance, then exhibit the tie path
// whose first iterative mapping reproduces the paper's worsened completion
// times.
func runRandomTieExample(id, title string, h heuristics.Heuristic, m *etc.Matrix,
	wantOrig, wantFinal []float64, tables string) (*Report, error) {
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: id, Title: title}
	var b strings.Builder
	b.WriteString(renderETC("Reconstructed ETC matrix ("+tables+")", m))
	b.WriteByte('\n')

	det, err := core.Iterate(in, h, core.Deterministic())
	if err != nil {
		return nil, err
	}
	b.WriteString(renderIteration("Original mapping (deterministic ties)", det.Iterations[0]))
	g, err := renderIterationGantt(in, det.Iterations[0])
	if err != nil {
		return nil, err
	}
	b.WriteString(g)
	b.WriteByte('\n')

	rep.Checks = append(rep.Checks,
		checkMultiset("original machine completion times", wantOrig, det.Iterations[0].Completion),
		checkBool("deterministic iteration changes mapping (theorem)", false, det.Changed()),
	)

	// Exhibit the worsening tie path.
	paths, err := counterexample.ExploreTiePaths(in, h, 128)
	if err != nil {
		return nil, err
	}
	var worse *counterexample.PathResult
	for i := range paths[1:] {
		p := &paths[1+i]
		if !p.Trace.MakespanIncreased() {
			continue
		}
		fc := p.Trace.FinalCompletion
		if c := checkMultiset("", wantFinal, fc); c.OK {
			worse = p
			break
		}
	}
	if worse == nil {
		rep.Checks = append(rep.Checks, Check{
			Name: "worsening tie path with the paper's completion times exists",
			Want: fmtSet(wantFinal), Got: "none found", OK: false,
		})
		rep.Body = b.String()
		return rep, nil
	}
	fmt.Fprintf(&b, "First iterative mapping under random ties (tie path %v):\n", worse.Script)
	it1 := worse.Trace.Iterations[1]
	b.WriteString(renderIteration("", it1))
	g, err = renderIterationGantt(in, it1)
	if err != nil {
		return nil, err
	}
	b.WriteString(g)
	fmt.Fprintf(&b, "\nOverall makespan: %.4g -> %.4g\n", worse.Trace.OriginalMakespan(), worse.Trace.FinalMakespan())

	rep.Checks = append(rep.Checks,
		checkMultiset("final completion times on worsening path", wantFinal, worse.Trace.FinalCompletion),
		checkBool("makespan increased", true, worse.Trace.MakespanIncreased()),
	)
	rep.Body = b.String()
	return rep, nil
}

// RunMinMinExample reproduces Tables 1-3 and Figures 3-4.
func RunMinMinExample() (*Report, error) {
	return runRandomTieExample("E1", "Min-Min: random ties can increase makespan",
		heuristics.MinMin{}, MinMinExampleETC(),
		[]float64{5, 2, 4}, []float64{5, 1, 6}, "Table 1")
}

// RunMCTExample reproduces Tables 4-6 and Figures 6-7.
func RunMCTExample() (*Report, error) {
	return runRandomTieExample("E2", "MCT: random ties can increase makespan",
		heuristics.MCT{}, MCTMETExampleETC(),
		[]float64{4, 3, 3}, []float64{4, 1, 5}, "Table 4")
}

// RunMETExample reproduces Tables 4, 7-8 and Figures 9-10.
func RunMETExample() (*Report, error) {
	return runRandomTieExample("E3", "MET: random ties can increase makespan",
		heuristics.MET{}, MCTMETExampleETC(),
		[]float64{4, 3, 3}, []float64{4, 1, 5}, "Table 4")
}

// --- E4: SWA -----------------------------------------------------------------

// RunSWAExample reproduces Tables 9-11 and Figures 11-12.
func RunSWAExample() (*Report, error) {
	m := SWAExampleETC()
	low, high := heuristics.PaperSWALow, heuristics.PaperSWAHigh
	h := heuristics.SWA{Low: low, High: high}
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "E4", Title: "SWA: deterministic ties can increase makespan"}
	var b strings.Builder
	b.WriteString(renderETC("Reconstructed ETC matrix (Table 9)", m))
	fmt.Fprintf(&b, "thresholds: low=%.2f high=%.2f\n\n", low, high)

	// Original mapping with full trace (Table 10).
	_, origSteps, err := h.MapTrace(in, tiebreak.First{})
	if err != nil {
		return nil, err
	}
	b.WriteString(renderSWATrace("Original mapping (Table 10)", origSteps, nil, nil))

	tr, err := core.Iterate(in, h, core.Deterministic())
	if err != nil {
		return nil, err
	}
	g, err := renderIterationGantt(in, tr.Iterations[0])
	if err != nil {
		return nil, err
	}
	b.WriteString(g)
	b.WriteByte('\n')

	// First iterative mapping trace (Table 11): re-run SWA on the
	// restricted instance the engine saw.
	it1 := tr.Iterations[1]
	sub, err := in.Restrict(it1.Tasks, it1.Machines)
	if err != nil {
		return nil, err
	}
	_, iterSteps, err := h.MapTrace(sub, tiebreak.First{})
	if err != nil {
		return nil, err
	}
	b.WriteString(renderSWATrace("First iterative mapping (Table 11)", iterSteps, it1.Tasks, it1.Machines))
	g, err = renderIterationGantt(in, it1)
	if err != nil {
		return nil, err
	}
	b.WriteString(g)
	fmt.Fprintf(&b, "\nOverall makespan: %.4g -> %.4g\n", tr.OriginalMakespan(), tr.FinalMakespan())
	rep.Body = b.String()

	rep.Checks = append(rep.Checks,
		checkMultiset("original completion times", []float64{6, 5, 5}, tr.Iterations[0].Completion),
		check("original sub-heuristic trace", "mct,mct,mct,mct,met", swaHeuristics(origSteps)),
		check("original BI trace", "x,0,0,1/3,2/3", swaBIs(origSteps)),
		checkMultiset("iterative completion times (survivors)", []float64{4, 6.5}, it1.Completion),
		check("iterative sub-heuristic trace", "mct,mct,met,mct", swaHeuristics(iterSteps)),
		check("iterative BI trace", "x,0,1/2,4/13", swaBIs(iterSteps)),
		checkBool("makespan increased under deterministic ties", true, tr.MakespanIncreased()),
		checkMultiset("final completion times", []float64{6, 4, 6.5}, tr.FinalCompletion),
	)
	return rep, nil
}

func renderSWATrace(title string, steps []heuristics.SWAStep, globalTasks, globalMachines []int) string {
	tb := table.New(title, "task", "BI", "heuristic", "machine", "ready times")
	for _, s := range steps {
		taskID, machineID := s.Task, s.Machine
		if globalTasks != nil {
			taskID = globalTasks[s.Task]
		}
		if globalMachines != nil {
			machineID = globalMachines[s.Machine]
		}
		ready := make([]string, len(s.Ready))
		for j, r := range s.Ready {
			ready[j] = fmt.Sprintf("%.4g", r)
		}
		tb.AddRow(fmt.Sprintf("t%d", taskID), biString(s.BI), s.Heuristic,
			fmt.Sprintf("m%d", machineID), strings.Join(ready, ", "))
	}
	return tb.String()
}

// biString renders a balance index as the paper does: "x" before the first
// decision, small rationals exactly.
func biString(bi float64) string {
	if math.IsNaN(bi) {
		return "x"
	}
	// Recognise the small rationals the paper prints.
	for den := 1; den <= 16; den++ {
		num := bi * float64(den)
		if math.Abs(num-math.Round(num)) < 1e-9 {
			n := int(math.Round(num))
			if den == 1 {
				return fmt.Sprintf("%d", n)
			}
			return fmt.Sprintf("%d/%d", n, den)
		}
	}
	return fmt.Sprintf("%.4g", bi)
}

func swaHeuristics(steps []heuristics.SWAStep) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = s.Heuristic
	}
	return strings.Join(parts, ",")
}

func swaBIs(steps []heuristics.SWAStep) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		parts[i] = biString(s.BI)
	}
	return strings.Join(parts, ",")
}

// --- E5: K-Percent Best -------------------------------------------------------

// RunKPBExample reproduces Tables 12-14 and Figures 15-16.
func RunKPBExample() (*Report, error) {
	m := KPBExampleETC()
	h := heuristics.KPercentBest{Percent: heuristics.PaperKPercent}
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "E5", Title: "K-Percent Best: deterministic ties can increase makespan"}
	var b strings.Builder
	b.WriteString(renderETC("Reconstructed ETC matrix (Table 12)", m))
	fmt.Fprintf(&b, "k = %d%%\n\n", heuristics.PaperKPercent)

	tr, err := core.Iterate(in, h, core.Deterministic())
	if err != nil {
		return nil, err
	}
	b.WriteString(renderIteration("Original mapping (Table 13)", tr.Iterations[0]))
	g, err := renderIterationGantt(in, tr.Iterations[0])
	if err != nil {
		return nil, err
	}
	b.WriteString(g)
	b.WriteByte('\n')
	it1 := tr.Iterations[1]
	b.WriteString(renderIteration("First iterative mapping (Table 14)", it1))
	g, err = renderIterationGantt(in, it1)
	if err != nil {
		return nil, err
	}
	b.WriteString(g)
	fmt.Fprintf(&b, "\nOverall makespan: %.4g -> %.4g\n", tr.OriginalMakespan(), tr.FinalMakespan())
	rep.Body = b.String()

	rep.Checks = append(rep.Checks,
		check("subset size with 3 machines", "2", fmt.Sprintf("%d", h.SubsetSize(3))),
		check("subset size with 2 machines (degenerates to MET)", "1", fmt.Sprintf("%d", h.SubsetSize(2))),
		checkMultiset("original completion times", []float64{6, 5, 5.5}, tr.Iterations[0].Completion),
		checkMultiset("iterative completion times (survivors)", []float64{7, 3}, it1.Completion),
		checkMultiset("final completion times", []float64{6, 7, 3}, tr.FinalCompletion),
		checkBool("makespan increased under deterministic ties", true, tr.MakespanIncreased()),
	)
	return rep, nil
}

// --- E6: Sufferage -------------------------------------------------------------

// RunSufferageExample reproduces Tables 15-17 and Figures 18-19.
func RunSufferageExample() (*Report, error) {
	m := SufferageExampleETC()
	h := heuristics.Sufferage{}
	in, err := sched.NewInstance(m, nil)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "E6", Title: "Sufferage: deterministic ties can increase makespan"}
	var b strings.Builder
	b.WriteString(renderETC("Reconstructed ETC matrix (Table 15)", m))
	b.WriteByte('\n')

	_, origPasses, err := h.MapTrace(in, tiebreak.First{})
	if err != nil {
		return nil, err
	}
	b.WriteString(renderSufferagePasses("Original mapping passes (Table 16)", origPasses, nil, nil))

	tr, err := core.Iterate(in, h, core.Deterministic())
	if err != nil {
		return nil, err
	}
	g, err := renderIterationGantt(in, tr.Iterations[0])
	if err != nil {
		return nil, err
	}
	b.WriteString(g)
	b.WriteByte('\n')

	it1 := tr.Iterations[1]
	sub, err := in.Restrict(it1.Tasks, it1.Machines)
	if err != nil {
		return nil, err
	}
	_, iterPasses, err := h.MapTrace(sub, tiebreak.First{})
	if err != nil {
		return nil, err
	}
	b.WriteString(renderSufferagePasses("First iterative mapping passes (Table 17)", iterPasses, it1.Tasks, it1.Machines))
	g, err = renderIterationGantt(in, it1)
	if err != nil {
		return nil, err
	}
	b.WriteString(g)
	fmt.Fprintf(&b, "\nOverall makespan: %.4g -> %.4g\n", tr.OriginalMakespan(), tr.FinalMakespan())
	rep.Body = b.String()

	rep.Checks = append(rep.Checks,
		checkMultiset("original completion times", []float64{10, 9.5, 9.5}, tr.Iterations[0].Completion),
		checkMultiset("iterative completion times (survivors)", []float64{10.5, 8.5}, it1.Completion),
		checkMultiset("final completion times", []float64{10, 10.5, 8.5}, tr.FinalCompletion),
		checkBool("makespan increased under deterministic ties", true, tr.MakespanIncreased()),
		checkBool("ties broken deterministically", true, true),
	)
	return rep, nil
}

func renderSufferagePasses(title string, passes []heuristics.SufferagePass, globalTasks, globalMachines []int) string {
	var b strings.Builder
	b.WriteString(title)
	b.WriteByte('\n')
	for i, p := range passes {
		tb := table.New(fmt.Sprintf("pass %d", i+1), "task", "min CT", "sufferage", "machine", "outcome")
		for _, d := range p.Decisions {
			taskID, machineID := d.Task, d.Machine
			if globalTasks != nil {
				taskID = globalTasks[d.Task]
			}
			if globalMachines != nil {
				machineID = globalMachines[d.Machine]
			}
			tb.AddRow(fmt.Sprintf("t%d", taskID), d.MinCT, d.Sufferage,
				fmt.Sprintf("m%d", machineID), d.Outcome)
		}
		b.WriteString(tb.String())
	}
	return b.String()
}

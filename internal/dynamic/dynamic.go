// Package dynamic simulates the dynamic mapping environment of Maheswaran
// et al. (the paper's reference [14]), from which the Switching Algorithm,
// K-Percent Best and Sufferage heuristics originate: tasks arrive over time
// and are mapped online, either one-by-one on arrival (immediate mode) or
// in batches at mapping events (batch mode).
//
// The paper studies these heuristics in a static setting; this package
// supplies the environment they were designed for, so the repository's
// users can evaluate both regimes. The simulation model matches the static
// one: a machine executes one task at a time, a task's execution time is its
// ETC entry, and a task cannot start before it arrives.
package dynamic

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/etc"
	"repro/internal/heuristics"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// Workload pairs an ETC matrix with per-task arrival times (row t of the
// matrix arrives at Arrivals[t]).
type Workload struct {
	ETC      *etc.Matrix
	Arrivals []float64
}

// Validate checks shape and values.
func (w Workload) Validate() error {
	if w.ETC == nil {
		return errors.New("dynamic: nil ETC")
	}
	if len(w.Arrivals) != w.ETC.Tasks() {
		return fmt.Errorf("dynamic: %d arrivals for %d tasks", len(w.Arrivals), w.ETC.Tasks())
	}
	for t, a := range w.Arrivals {
		if math.IsNaN(a) || math.IsInf(a, 0) || a < 0 {
			return fmt.Errorf("dynamic: arrival %d = %g invalid", t, a)
		}
	}
	return nil
}

// GeneratePoissonWorkload builds a workload whose tasks arrive as a Poisson
// process with the given mean inter-arrival time, over a matrix drawn from
// the given class.
func GeneratePoissonWorkload(class etc.Class, tasks, machines int, meanInterarrival float64, src *rng.Source) (Workload, error) {
	if meanInterarrival <= 0 {
		return Workload{}, fmt.Errorf("dynamic: mean inter-arrival %g", meanInterarrival)
	}
	m, err := etc.GenerateClass(class, tasks, machines, src)
	if err != nil {
		return Workload{}, err
	}
	arrivals := make([]float64, tasks)
	now := 0.0
	for t := range arrivals {
		// Exponential inter-arrival: -mean * ln(U).
		u := src.Float64()
		for u == 0 {
			u = src.Float64()
		}
		now += -meanInterarrival * math.Log(u)
		arrivals[t] = now
	}
	return Workload{ETC: m, Arrivals: arrivals}, nil
}

// Result is the outcome of a dynamic simulation.
type Result struct {
	// Start and Completion per task; Machine is each task's assignment.
	Start, Completion []float64
	Machine           []int
	// MachineFinish is each machine's last completion time.
	MachineFinish []float64
	// Makespan is the completion time of the last task.
	Makespan float64
	// MeanResponse is the mean of (completion - arrival) over tasks.
	MeanResponse float64
	// MappingEvents counts heuristic invocations (per task in immediate
	// mode, per batch event in batch mode).
	MappingEvents int
}

func newResult(tasks, machines int) *Result {
	return &Result{
		Start:         make([]float64, tasks),
		Completion:    make([]float64, tasks),
		Machine:       make([]int, tasks),
		MachineFinish: make([]float64, machines),
	}
}

func (r *Result) finish(w Workload) {
	sumResp := 0.0
	for t, c := range r.Completion {
		if c > r.Makespan {
			r.Makespan = c
		}
		sumResp += c - w.Arrivals[t]
	}
	r.MeanResponse = sumResp / float64(len(r.Completion))
}

// ImmediateRule is an on-arrival machine-selection rule.
type ImmediateRule string

// The immediate-mode rules of Maheswaran et al.
const (
	ImmediateMCT ImmediateRule = "mct"
	ImmediateMET ImmediateRule = "met"
	ImmediateOLB ImmediateRule = "olb"
	ImmediateKPB ImmediateRule = "kpb"
	ImmediateSWA ImmediateRule = "swa"
)

// ImmediateConfig configures an immediate-mode simulation. ImmediateKPB
// and ImmediateSWA run with the registry's parameters
// (heuristics.PaperKPercent, PaperSWALow and PaperSWAHigh).
type ImmediateConfig struct {
	Rule ImmediateRule
	// Ties resolves machine ties (default deterministic lowest-index).
	Ties tiebreak.Policy
}

// SimulateImmediate runs an immediate-mode simulation: each task is mapped
// at its arrival instant, using the machine availability vector of that
// moment.
func SimulateImmediate(w Workload, cfg ImmediateConfig) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ties == nil {
		cfg.Ties = tiebreak.First{}
	}
	nT, nM := w.ETC.Tasks(), w.ETC.Machines()
	res := newResult(nT, nM)
	avail := make([]float64, nM)
	order := arrivalOrder(w.Arrivals)
	useMET := false // SWA state: first task maps with MCT
	for i, t := range order {
		now := w.Arrivals[t]
		eff := make([]float64, nM) // earliest possible start per machine
		for m := range eff {
			eff[m] = math.Max(avail[m], now)
		}
		var machine int
		switch cfg.Rule {
		case ImmediateMCT:
			machine = argminCT(w.ETC, t, eff, cfg.Ties)
		case ImmediateMET:
			machine = argminRow(w.ETC, t, cfg.Ties)
		case ImmediateOLB:
			machine = cfg.Ties.Choose(minIdx(eff))
		case ImmediateKPB:
			machine = kpbPick(w.ETC, t, eff, cfg.Ties)
		case ImmediateSWA:
			if i > 0 {
				bi := sched.BalanceIndex(avail)
				switch {
				case bi > heuristics.PaperSWAHigh:
					useMET = true
				case bi < heuristics.PaperSWALow:
					useMET = false
				}
			}
			if useMET && i > 0 {
				machine = argminRow(w.ETC, t, cfg.Ties)
			} else {
				machine = argminCT(w.ETC, t, eff, cfg.Ties)
			}
		default:
			return nil, fmt.Errorf("dynamic: unknown immediate rule %q", cfg.Rule)
		}
		start := eff[machine]
		complete := start + w.ETC.At(t, machine)
		res.Start[t] = start
		res.Completion[t] = complete
		res.Machine[t] = machine
		avail[machine] = complete
		res.MappingEvents++
	}
	copy(res.MachineFinish, avail)
	res.finish(w)
	return res, nil
}

// BatchConfig configures a batch-mode simulation.
type BatchConfig struct {
	// Heuristic is a batch mapping heuristic from the registry (typically
	// "min-min", "max-min" or "sufferage").
	Heuristic heuristics.Heuristic
	// Interval is the spacing of mapping events; tasks arriving between
	// events wait for the next one. Must be positive.
	Interval float64
	// Ties resolves heuristic ties (default deterministic lowest-index).
	Ties tiebreak.Policy
}

// SimulateBatch runs a batch-mode simulation: at each mapping event
// (multiples of Interval, plus one final event after the last arrival), all
// arrived-but-unmapped tasks are mapped together by the batch heuristic,
// seeing machine ready times as of the event instant. Mapped tasks are
// committed (no remapping), matching the simple regulation scheme.
func SimulateBatch(w Workload, cfg BatchConfig) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if cfg.Heuristic == nil {
		return nil, errors.New("dynamic: nil batch heuristic")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("dynamic: batch interval %g", cfg.Interval)
	}
	ties := cfg.Ties
	if ties == nil {
		ties = tiebreak.First{}
	}
	nT, nM := w.ETC.Tasks(), w.ETC.Machines()
	res := newResult(nT, nM)
	avail := make([]float64, nM)
	mapped := make([]bool, nT)
	remaining := nT

	lastArrival := 0.0
	for _, a := range w.Arrivals {
		lastArrival = math.Max(lastArrival, a)
	}
	for event := 0; remaining > 0; event++ {
		now := float64(event) * cfg.Interval
		if now > lastArrival+cfg.Interval {
			return nil, errors.New("dynamic: batch simulation failed to drain (internal error)")
		}
		var pending []int
		for t := 0; t < nT; t++ {
			if !mapped[t] && w.Arrivals[t] <= now {
				pending = append(pending, t)
			}
		}
		if len(pending) == 0 {
			continue
		}
		// Build the batch instance: pending tasks over all machines, ready
		// times as of now.
		ready := make([]float64, nM)
		for m := range ready {
			ready[m] = math.Max(avail[m], now)
		}
		sub, err := w.ETC.SubMatrix(pending, allIndices(nM))
		if err != nil {
			return nil, err
		}
		in, err := sched.NewInstance(sub, ready)
		if err != nil {
			return nil, err
		}
		mp, err := cfg.Heuristic.Map(in, ties)
		if err != nil {
			return nil, err
		}
		if err := mp.Validate(in); err != nil {
			return nil, fmt.Errorf("dynamic: batch heuristic %s: %w", cfg.Heuristic.Name(), err)
		}
		// Commit: tasks on each machine run in batch order after its
		// current availability.
		for m := 0; m < nM; m++ {
			cursor := ready[m]
			for i, t := range pending {
				if mp.Assign[i] != m {
					continue
				}
				start := cursor
				complete := start + w.ETC.At(t, m)
				res.Start[t] = start
				res.Completion[t] = complete
				res.Machine[t] = m
				cursor = complete
				mapped[t] = true
				remaining--
			}
			if cursor > avail[m] {
				avail[m] = cursor
			}
		}
		res.MappingEvents++
	}
	copy(res.MachineFinish, avail)
	res.finish(w)
	return res, nil
}

// --- local selection helpers -------------------------------------------------

func arrivalOrder(arrivals []float64) []int {
	order := make([]int, len(arrivals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return arrivals[order[a]] < arrivals[order[b]] })
	return order
}

func allIndices(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// minIdx returns the indices of the minimal entries (within the heuristics
// package's tie tolerance).
func minIdx(xs []float64) []int {
	mn := math.Inf(1)
	for _, x := range xs {
		mn = math.Min(mn, x)
	}
	var idx []int
	for i, x := range xs {
		if x-mn <= heuristics.Epsilon {
			idx = append(idx, i)
		}
	}
	return idx
}

func argminCT(m *etc.Matrix, task int, eff []float64, ties tiebreak.Policy) int {
	ct := make([]float64, len(eff))
	for j := range ct {
		ct[j] = eff[j] + m.At(task, j)
	}
	return ties.Choose(minIdx(ct))
}

func argminRow(m *etc.Matrix, task int, ties tiebreak.Policy) int {
	return ties.Choose(minIdx(m.Row(task)))
}

func kpbPick(m *etc.Matrix, task int, eff []float64, ties tiebreak.Policy) int {
	k := heuristics.KPercentBest{Percent: heuristics.PaperKPercent}
	size := k.SubsetSize(len(eff))
	type cand struct {
		m   int
		etc float64
	}
	cands := make([]cand, len(eff))
	for j := range cands {
		cands[j] = cand{j, m.At(task, j)}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].etc < cands[b].etc })
	subset := cands[:size]
	ct := make([]float64, len(subset))
	for i, c := range subset {
		ct[i] = eff[c.m] + m.At(task, c.m)
	}
	picked := ties.Choose(minIdx(ct))
	return subset[picked].m
}

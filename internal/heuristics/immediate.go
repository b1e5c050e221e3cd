package heuristics

import (
	"fmt"
	"math"

	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// OLB is Opportunistic Load Balancing: each task, in list order, goes to the
// machine that becomes ready soonest, ignoring the task's ETC. It is the
// classic "keep all machines busy" baseline from Braun et al.
type OLB struct{}

// Name implements Heuristic.
func (OLB) Name() string { return "olb" }

// Map implements Heuristic.
func (h OLB) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, h.MapInto)
}

// MapInto implements Heuristic.
func (OLB) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	mp := assignInto(dst, in.Tasks())
	ready, _, idx := sc.listBuffers(in)
	for t := 0; t < in.Tasks(); t++ {
		// Float compares: a ready time may be -0 (see ctBits).
		idx = minIndicesInto(ready, idx)
		m := tb.Choose(idx)
		mp.Assign[t] = m
		ready[m] += in.ETC().At(t, m)
	}
	return mp, nil
}

// MET is Minimum Execution Time (paper Figure 8): each task, in list order,
// goes to the machine with its smallest ETC, regardless of machine load.
type MET struct{}

// Name implements Heuristic.
func (MET) Name() string { return "met" }

// Map implements Heuristic.
func (h MET) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, h.MapInto)
}

// MapInto implements Heuristic.
func (MET) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	mp := assignInto(dst, in.Tasks())
	_, _, idx := sc.listBuffers(in)
	for t := 0; t < in.Tasks(); t++ {
		idx = minETCInto(in, t, idx)
		mp.Assign[t] = tb.Choose(idx)
	}
	return mp, nil
}

// minETCInto is minIndicesInto over task t's ETC row, read in place.
func minETCInto(in *sched.Instance, t int, buf []int) []int {
	e, nM := in.ETC(), in.Machines()
	mn := e.At(t, 0)
	for m := 1; m < nM; m++ {
		if v := e.At(t, m); v < mn {
			mn = v
		}
	}
	buf = buf[:0]
	for m := 0; m < nM; m++ {
		if approxEqual(e.At(t, m), mn) {
			buf = append(buf, m)
		}
	}
	return buf
}

// MCT is Minimum Completion Time (paper Figure 5): each task, in list order,
// goes to the machine with the smallest completion time CT = ETC + ready.
type MCT struct{}

// Name implements Heuristic.
func (MCT) Name() string { return "mct" }

// Map implements Heuristic.
func (h MCT) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, h.MapInto)
}

// MapInto implements Heuristic.
func (MCT) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	mp := assignInto(dst, in.Tasks())
	ready, ct, idx := sc.listBuffers(in)
	for t := 0; t < in.Tasks(); t++ {
		idx = nearInto(ct, completionRowMin(in, t, ready, ct), idx)
		m := tb.Choose(idx)
		mp.Assign[t] = m
		ready[m] += in.ETC().At(t, m)
	}
	return mp, nil
}

// KPercentBest (paper Figure 14) restricts each task's choice to its
// floor(M*k/100) best machines by execution time (at least one), then picks
// the earliest completion within that subset. With k small enough that the
// subset is a single machine it degenerates to MET; with k=100 it is MCT —
// the degeneration the paper's example exploits when the iterative technique
// shrinks the machine pool.
type KPercentBest struct {
	// Percent is k in (0, 100].
	Percent float64
}

// Name implements Heuristic. The registry's k is named without
// formatting, so naming it costs no allocation.
func (k KPercentBest) Name() string {
	if k.Percent == PaperKPercent {
		return "kpb-70"
	}
	return fmt.Sprintf("kpb-%g", k.Percent)
}

// SubsetSize returns the machine-subset size for machines available
// machines: floor(machines*k/100), at least 1.
func (k KPercentBest) SubsetSize(machines int) int {
	n := int(float64(machines) * k.Percent / 100)
	if n < 1 {
		n = 1
	}
	if n > machines {
		n = machines
	}
	return n
}

// Map implements Heuristic.
func (k KPercentBest) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, k.MapInto)
}

// MapInto implements Heuristic.
func (k KPercentBest) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	if k.Percent <= 0 || k.Percent > 100 {
		return sched.Mapping{}, fmt.Errorf("heuristics: k-percent best with percent=%g outside (0,100]", k.Percent)
	}
	mp := assignInto(dst, in.Tasks())
	ready := in.ReadyTimesInto(sc.ready)
	sc.ready = ready
	size := k.SubsetSize(in.Machines())
	// Scratch reused for every task: the ranking, the subset, its
	// completion times, its tied positions and their machines.
	ranked := grow(sc.ranked, in.Machines())
	subset := grow(sc.subset, size)
	cts := grow(sc.row, size)
	idx := grow(sc.pos, size)[:0]
	sc.ranked, sc.subset, sc.row, sc.pos = ranked, subset, cts, idx
	cands := sc.candidates(size)
	for t := 0; t < in.Tasks(); t++ {
		bestSubset(in, t, ranked, subset)
		// Earliest completion within the subset.
		mn := ctBits(math.Inf(1))
		for i, m := range subset {
			cts[i] = in.ETC().At(t, m) + ready[m]
			mn = min(mn, ctBits(cts[i]))
		}
		idx = nearInto(cts, math.Float64frombits(mn), idx)
		cands = cands[:0]
		for _, i := range idx {
			cands = append(cands, subset[i])
		}
		m := tb.Choose(cands)
		mp.Assign[t] = m
		ready[m] += in.ETC().At(t, m)
	}
	return mp, nil
}

// kpbCand is one machine's ETC for the task being ranked.
type kpbCand struct {
	m   int
	etc float64
}

// bestSubset writes into subset the len(subset) machines with the smallest
// ETC for task t, in ascending machine-index order; cands is scratch of one
// entry per machine. Equal ETC values at the boundary resolve toward the
// lower machine index, keeping the subset deterministic.
func bestSubset(in *sched.Instance, t int, cands []kpbCand, subset []int) {
	for m := range cands {
		cands[m] = kpbCand{m, in.ETC().At(t, m)}
	}
	// Stable selection: sort by (etc, machine index).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && (cands[j].etc < cands[j-1].etc ||
			(cands[j].etc == cands[j-1].etc && cands[j].m < cands[j-1].m)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for i := range subset {
		subset[i] = cands[i].m
	}
	// Ascending machine order for canonical tie presentation.
	for i := 1; i < len(subset); i++ {
		for j := i; j > 0 && subset[j] < subset[j-1]; j-- {
			subset[j], subset[j-1] = subset[j-1], subset[j]
		}
	}
}

// SWA is the Switching Algorithm (paper Figure 13), a hybrid of MCT and MET
// driven by the load-balance index BI = min ready / max ready. The first
// task is mapped with MCT; thereafter, BI > High switches to MET (letting
// load skew grow from the balanced state) and BI < Low switches back to MCT.
type SWA struct {
	// Low and High are the switching thresholds, 0 <= Low < High <= 1. The
	// paper's example uses High = 0.49; the OCR lost its Low, and any value
	// in (4/13, 1/3] reproduces the example traces — this repo uses 0.33.
	Low, High float64
}

// Name implements Heuristic. The registry's thresholds are named without
// formatting, so naming them costs no allocation.
func (s SWA) Name() string {
	if s.Low == PaperSWALow && s.High == PaperSWAHigh {
		return "swa-0.33-0.49"
	}
	return fmt.Sprintf("swa-%g-%g", s.Low, s.High)
}

// SWAStep records one mapping decision for trace reproduction: which
// sub-heuristic mapped the task and the balance index before the decision.
type SWAStep struct {
	Task      int
	Machine   int
	Heuristic string  // "mct" or "met"
	BI        float64 // balance index observed before mapping this task; NaN for the first task
	Ready     []float64
}

// Map implements Heuristic. Unlike MapTrace it builds no decision log.
func (s SWA) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, s.MapInto)
}

// MapInto implements Heuristic.
func (s SWA) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	mp, _, err := s.mapSWA(in, tb, sc, dst, false)
	return mp, err
}

// MapTrace is Map returning the per-task decision trace (paper Tables 10
// and 11 print it).
func (s SWA) MapTrace(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, []SWAStep, error) {
	sc := GetScratch()
	defer PutScratch(sc)
	return s.mapSWA(in, tb, sc, nil, true)
}

// mapSWA is the switching loop; wantTrace gates building the decision log
// and its per-task ready snapshots.
func (s SWA) mapSWA(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int, wantTrace bool) (sched.Mapping, []SWAStep, error) {
	if !(s.Low >= 0 && s.Low < s.High && s.High <= 1) {
		return sched.Mapping{}, nil, fmt.Errorf("heuristics: SWA thresholds low=%g high=%g invalid", s.Low, s.High)
	}
	mp := assignInto(dst, in.Tasks())
	ready, ct, idx := sc.listBuffers(in)
	useMET := false // step 2: the first task is mapped using MCT
	var steps []SWAStep
	if wantTrace {
		steps = make([]SWAStep, 0, in.Tasks())
	}
	for t := 0; t < in.Tasks(); t++ {
		bi := math.NaN() // first task: BI not consulted (paper prints "x")
		if t > 0 {
			bi = sched.BalanceIndex(ready)
			switch {
			case bi > s.High:
				useMET = true
			case bi < s.Low:
				useMET = false
			}
		}
		var m int
		var used string
		if t > 0 && useMET {
			idx = minETCInto(in, t, idx)
			used = "met"
		} else {
			idx = nearInto(ct, completionRowMin(in, t, ready, ct), idx)
			used = "mct"
		}
		m = tb.Choose(idx)
		mp.Assign[t] = m
		ready[m] += in.ETC().At(t, m)
		if wantTrace {
			snapshot := make([]float64, len(ready))
			copy(snapshot, ready)
			steps = append(steps, SWAStep{Task: t, Machine: m, Heuristic: used, BI: bi, Ready: snapshot})
		}
	}
	return mp, steps, nil
}

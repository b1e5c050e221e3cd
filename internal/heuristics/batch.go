package heuristics

import (
	"math"

	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// pairKey encodes a (task, machine) pair as a single canonical integer so a
// tie over pairs can be presented to a tiebreak.Policy in ascending
// task-major order and decoded after the choice.
func pairKey(task, machine, machines int) int { return task*machines + machine }

func pairFromKey(key, machines int) (task, machine int) { return key / machines, key % machines }

// MinMin is the two-phase greedy of Ibarra and Kim (paper Figure 2): for
// each unmapped task find its minimum-completion machine (first Min), then
// commit the task-machine pair with the overall minimum completion time
// (second Min). Both phases' ties are delegated to the policy as a single
// choice over the tied pairs.
type MinMin struct{}

// Name implements Heuristic.
func (MinMin) Name() string { return "min-min" }

// Map implements Heuristic.
func (h MinMin) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, h.MapInto)
}

// MapInto implements Heuristic.
func (MinMin) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	return greedyTwoPhase(in, tb, sc, false, dst)
}

// MaxMin is the companion heuristic: first phase identical, second phase
// commits the pair whose per-task minimum completion time is *largest*,
// scheduling long tasks early.
type MaxMin struct{}

// Name implements Heuristic.
func (MaxMin) Name() string { return "max-min" }

// Map implements Heuristic.
func (h MaxMin) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, h.MapInto)
}

// MapInto implements Heuristic.
func (MaxMin) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	return greedyTwoPhase(in, tb, sc, true, dst)
}

// greedyTwoPhase implements Min-Min (useMax=false) and Max-Min (useMax=true)
// through the incremental completion-time kernel (kernel.go); behavior is
// bit-identical to referenceGreedyTwoPhase.
func greedyTwoPhase(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, useMax bool, dst []int) (sched.Mapping, error) {
	sc.ready = in.ReadyTimesInto(sc.ready)
	sc.kMin.init(in, sc.ready)
	mp := assignInto(dst, in.Tasks())
	sc.kMin.run(tb, useMax, sc.ready, mp)
	return mp, nil
}

// Duplex runs Min-Min and Max-Min on the same instance and returns whichever
// mapping has the smaller makespan, preferring Min-Min on a tie.
type Duplex struct{}

// Name implements Heuristic.
func (Duplex) Name() string { return "duplex" }

// Map implements Heuristic.
func (d Duplex) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, d.MapInto)
}

// MapInto implements Heuristic.
func (d Duplex) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	mp, _, _, err := d.MapSelectInto(in, tb, sc, nil, dst)
	return mp, err
}

// MapSelectInto is MapInto, additionally naming the side ("min-min" or
// "max-min") whose mapping was returned, which the iterative engine
// surfaces in its observer events instead of swallowing it, and counting
// the Min-Min run's choices that offered the policy more than one
// candidate.
//
// minMin, when non-nil, is in's Min-Min mapping under tb, known to the
// caller without a run (the iterative engine derives it from a tie-free
// predecessor, see Restricts); it may be dst itself. Only Max-Min then
// runs, the policy sees only its choices, and no Min-Min tie is reported.
// Otherwise the two runs share a single kernel cache build (the first
// phase over the initial ready times is identical for both), and the
// policy is consumed by the Min-Min run first, exactly as two independent
// Map calls would. Min-Min maps into dst and Max-Min into the scratch; a
// winning Max-Min mapping is copied into dst.
func (Duplex) MapSelectInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, minMin, dst []int) (mp sched.Mapping, side string, minTies int, err error) {
	nT := in.Tasks()
	sc.ready = in.ReadyTimesInto(sc.ready)
	sc.kMax.init(in, sc.ready)
	var mn sched.Mapping
	if minMin != nil {
		mn = sched.Mapping{Assign: grow(dst, nT)}
		copy(mn.Assign, minMin)
	} else {
		mn = assignInto(dst, nT)
		sc.kMin.copyFrom(&sc.kMax)
		minTies = sc.kMin.run(tb, false, sc.ready, mn)
		sc.ready = in.ReadyTimesInto(sc.ready) // Min-Min is done with it
	}
	mx := assignInto(sc.alt, nT)
	sc.alt = mx.Assign
	sc.kMax.run(tb, true, sc.ready, mx)
	// Compare makespans as sched.Evaluate computes them, summed in task
	// order; the runs' ready vectors accumulated in commit order, which can
	// differ in the last ulp.
	cs, err := sched.Completions(in, mn, sc.completion)
	if err != nil {
		return sched.Mapping{}, "", 0, err
	}
	msMin := sched.Makespan(cs)
	if cs, err = sched.Completions(in, mx, cs); err != nil {
		return sched.Mapping{}, "", 0, err
	}
	sc.completion = cs
	if sched.Makespan(cs) < msMin {
		copy(mn.Assign, mx.Assign)
		return mn, "max-min", minTies, nil
	}
	return mn, "min-min", minTies, nil
}

// Sufferage (paper Figure 17, after Maheswaran et al. and Casanova et al.)
// assigns machines in passes: within a pass each task claims its
// earliest-completion machine, and competing claims are resolved in favour
// of the task that would suffer most from losing the machine (sufferage =
// second-earliest CT minus earliest CT). Displaced tasks return to the list
// for the next pass; ready times update only between passes.
type Sufferage struct{}

// Name implements Heuristic.
func (Sufferage) Name() string { return "sufferage" }

// SufferageDecision records one task's examination within a pass, for
// reproducing the paper's per-pass tables.
type SufferageDecision struct {
	Task      int
	MinCT     float64
	Sufferage float64
	Machine   int
	// Outcome: "assigned" (took an unassigned machine), "displaced" (bumped
	// the previous holder), or "rejected" (lost to the current holder).
	Outcome string
}

// SufferagePass is the decision list of one pass.
type SufferagePass struct {
	Decisions []SufferageDecision
}

// Map implements Heuristic. Unlike MapTrace it builds no decision records.
func (h Sufferage) Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error) {
	return mapPooled(in, tb, h.MapInto)
}

// MapInto implements Heuristic.
func (Sufferage) MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error) {
	mp, _, err := sufferageMap(in, tb, sc, dst, false)
	return mp, err
}

// MapTrace is Map returning the per-pass decision trace.
func (Sufferage) MapTrace(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, []SufferagePass, error) {
	sc := GetScratch()
	defer PutScratch(sc)
	return sufferageMap(in, tb, sc, nil, true)
}

// sufferageMap is the Sufferage pass loop, decision-identical to
// referenceSufferage; wantTrace gates building the decision records.
func sufferageMap(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int, wantTrace bool) (sched.Mapping, []SufferagePass, error) {
	nT, nM := in.Tasks(), in.Machines()
	mp := assignInto(dst, nT)
	ready := in.ReadyTimesInto(sc.ready)
	sc.ready = ready
	inList := grow(sc.inList, nT)
	for i := range inList {
		inList[i] = true
	}
	holder := grow(sc.holder, nM) // task tentatively holding each machine, -1 if none
	sufferageOf := grow(sc.sufferageOf, nT)
	idx := sc.candidates(nM)
	sc.inList, sc.holder, sc.sufferageOf = inList, holder, sufferageOf
	etcm := in.ETC()
	remaining := nT
	var passes []SufferagePass
	for remaining > 0 {
		for m := range holder {
			holder[m] = -1
		}
		var pass SufferagePass
		// Snapshot of the list at pass start, ascending task order.
		for t := 0; t < nT; t++ {
			if !inList[t] {
				continue
			}
			// One pass over CT(t, ·), read in place: the earliest and
			// second-earliest completion times (sufferageValue's scan) and
			// the earliest one's first machine. Unsigned min/max over the
			// completion times' bit patterns (ctBits) keep the scan free of
			// data-dependent branches and agree with sufferageValue's
			// compare chain: every CT lies in (0, +Inf], where the patterns
			// order as the values do.
			inf := ctBits(math.Inf(1))
			fb, sb, arg := inf, inf, 0
			for m, r := range ready {
				v := ctBits(etcm.At(t, m) + r)
				if v < fb {
					arg = m
				}
				sb = min(sb, max(fb, v))
				fb = min(fb, v)
			}
			first, second := math.Float64frombits(fb), math.Float64frombits(sb)
			suff := 0.0
			if nM > 1 {
				suff = second - first
			}
			sufferageOf[t] = suff
			// The candidates within Epsilon of the minimum (minIndicesInto's
			// set): the argmin alone unless the runner-up is that close. The
			// negated test also rescans the NaN gap of an all-infinite row.
			idx = append(idx[:0], arg)
			if !(second-first > Epsilon) {
				idx = idx[:0]
				for m := 0; m < nM; m++ {
					if approxEqual(etcm.At(t, m)+ready[m], first) {
						idx = append(idx, m)
					}
				}
			}
			m := tb.Choose(idx)
			var outcome string
			switch prev := holder[m]; {
			case prev == -1:
				holder[m] = t
				inList[t] = false
				outcome = "assigned"
			case sufferageOf[prev] < suff:
				// Displace the weaker claim; it returns to the list.
				inList[prev] = true
				holder[m] = t
				inList[t] = false
				outcome = "displaced"
			default:
				outcome = "rejected"
			}
			if wantTrace {
				pass.Decisions = append(pass.Decisions, SufferageDecision{
					Task: t, MinCT: etcm.At(t, m) + ready[m], Sufferage: suff, Machine: m, Outcome: outcome,
				})
			}
		}
		// Commit the pass: update ready times for all tentative holders.
		for m, t := range holder {
			if t >= 0 {
				mp.Assign[t] = m
				ready[m] += in.ETC().At(t, m)
				remaining--
			}
		}
		if wantTrace {
			passes = append(passes, pass)
		}
	}
	return mp, passes, nil
}

// sufferageValue returns second-earliest minus earliest completion time, or
// 0 when only one machine exists.
func sufferageValue(ct []float64) float64 {
	if len(ct) == 1 {
		return 0
	}
	first, second := math.Inf(1), math.Inf(1)
	for _, v := range ct {
		switch {
		case v < first:
			first, second = v, first
		case v < second:
			second = v
		}
	}
	return second - first
}

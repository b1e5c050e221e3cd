package heuristics

import (
	"math"
	"slices"
	"sort"

	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// This file is the incremental completion-time kernel behind the batch
// heuristics (Min-Min, Max-Min, Duplex). The seed implementation
// (reference.go) recomputes every unmapped task's completion row twice per
// round — O(T²·M) rows per mapping. The kernel exploits the structure of the
// round update: committing a task to machine m advances only ready[m], so
// only column m of the cached completion-time matrix changes, and a task's
// cached row minimum needs re-scanning only when the refreshed entry *was*
// that minimum (entries can only grow — ETC values are strictly positive and
// float addition is monotone).
//
// The hard requirement is bit-identical behavior with reference.go:
//
//   - Column refreshes recompute ETC(t,m) + ready[m] with the exact same
//     float additions the reference performs; they never accumulate a delta
//     onto the cached value, which could differ in the last ulp.
//   - Candidate pairs are gathered in the same ascending task-major order
//     and compared with the same approxEqual tolerance, so every
//     tiebreak.Policy sees exactly the candidate sets the reference
//     presents. The unmapped-task list is kept sorted ascending for this.
//   - The cache holds completion times as their bit patterns (ctBits), and
//     the row minima and the phase-1 fold take unsigned min/max where the
//     reference uses < and math.Min/math.Max: identical results, because
//     completion times lie in (0, +Inf], where the patterns order as the
//     values do (no NaN, no signed zero). Loading the patterns straight
//     into integer registers keeps the re-scan free of both branches and
//     float-to-integer moves.
//
// differential_test.go pins optimized == reference across random instances,
// seeds and policies.

// twoPhaseKernel caches each unmapped task's completion row
// CT(t,m) = ETC(t,m) + ready[m], the exact row minimum, and a row-major
// copy of the ETC matrix (so hot loops touch flat slices, not the matrix
// interface). Kernels live in a Scratch, so steady-state mappings reuse
// one arena.
type twoPhaseKernel struct {
	nT, nM int
	etc    []float64 // nT*nM row-major ETC copy
	rows   []uint64  // nT*nM row-major cached completion times, as ctBits
	best   []uint64  // per-task exact row minimum, as ctBits
	order  []int     // unmapped task ids, ascending
	cands  []int     // phase-2 candidate scratch, reused across rounds
}

// footprint returns the bytes k's buffers hold.
func (k *twoPhaseKernel) footprint() int {
	return 8*(cap(k.etc)+cap(k.rows)+cap(k.best)) + word*(cap(k.order)+cap(k.cands))
}

// grow returns s resliced to n, reallocating only when capacity is
// insufficient; contents are unspecified. A new slice's capacity is its
// allocation's whole size class, so a footprint counted by capacity
// counts every byte allocated.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return slices.Grow([]T(nil), n)[:n]
	}
	return s[:n]
}

// init builds the full cache from the given ready times (phase 1 of the
// first round). Duplex shares one init between its Min-Min and Max-Min runs
// via copyFrom.
func (k *twoPhaseKernel) init(in *sched.Instance, ready []float64) {
	nT, nM := in.Tasks(), in.Machines()
	k.nT, k.nM = nT, nM
	k.etc = grow(k.etc, nT*nM)
	k.rows = grow(k.rows, nT*nM)
	k.best = grow(k.best, nT)
	k.order = grow(k.order, nT)
	k.cands = k.cands[:0]
	etcm := in.ETC()
	for t := 0; t < nT; t++ {
		base := t * nM
		erow := k.etc[base : base+nM]
		row := k.rows[base : base+nM]
		for m := 0; m < nM; m++ {
			e := etcm.At(t, m)
			erow[m] = e
			row[m] = ctBits(e + ready[m])
		}
		k.best[t] = minBits(row)
		k.order[t] = t
	}
}

// copyFrom makes k an independent copy of o's cache state.
func (k *twoPhaseKernel) copyFrom(o *twoPhaseKernel) {
	k.nT, k.nM = o.nT, o.nM
	n := o.nT * o.nM
	k.etc = grow(k.etc, n)
	copy(k.etc, o.etc[:n])
	k.rows = grow(k.rows, n)
	copy(k.rows, o.rows[:n])
	k.best = grow(k.best, o.nT)
	copy(k.best, o.best[:o.nT])
	k.order = grow(k.order, len(o.order))
	copy(k.order, o.order)
	k.cands = k.cands[:0]
}

// commit records that task was assigned to machine, after the caller
// advanced ready[machine]: column machine is refreshed for every remaining
// unmapped task and a row minimum re-scanned only when the stale entry was
// that minimum. Refreshed entries never shrink, so all other minima are
// untouched — exactly the values a full recomputation would produce. Since
// the loop already visits every remaining task, it also folds the next
// round's phase-1 target (the exact min or max over the row minima, an
// order-independent reduction) and returns it; the value is meaningless
// once the list is empty.
func (k *twoPhaseKernel) commit(task, machine int, rm float64, useMax bool) float64 {
	nM := k.nM
	// Drop task from the ascending unmapped list.
	i := sort.SearchInts(k.order, task)
	k.order = append(k.order[:i], k.order[i+1:]...)
	target := foldStart(useMax)
	for _, t := range k.order {
		base := t * nM
		old := k.rows[base+machine]
		k.rows[base+machine] = ctBits(k.etc[base+machine] + rm)
		bt := k.best[t]
		if old == bt {
			bt = minBits(k.rows[base : base+nM])
			k.best[t] = bt
		}
		target = fold(target, bt, useMax)
	}
	return math.Float64frombits(target)
}

// foldStart is the identity of the phase-1 fold over completion-time bit
// patterns: +Inf's for a min, +0's for a max (every completion time is
// larger).
func foldStart(useMax bool) uint64 {
	if useMax {
		return 0
	}
	return ctBits(math.Inf(1))
}

// fold folds the row minimum bt into the phase-1 target, a min (Min-Min)
// or max (Max-Min) of bit patterns.
func fold(target, bt uint64, useMax bool) uint64 {
	if useMax {
		return max(target, bt)
	}
	return min(target, bt)
}

// minBits returns the least of a non-empty row of completion times held as
// bit patterns. Two accumulators halve the chain of dependent conditional
// moves.
func minBits(row []uint64) uint64 {
	a, b := row[0], row[0]
	i := 1
	for ; i+1 < len(row); i += 2 {
		a = min(a, row[i])
		b = min(b, row[i+1])
	}
	if i < len(row) {
		a = min(a, row[i])
	}
	return min(a, b)
}

// run executes the two-phase greedy loop over the cache into mp, a mapping
// of the kernel's task count: Min-Min when useMax is false, Max-Min when
// true. ready must be the vector init (or the copied-from kernel's init)
// was built from; run advances it in place. It returns the number of
// choices that offered the policy more than one candidate.
func (k *twoPhaseKernel) run(tb tiebreak.Policy, useMax bool, ready []float64, mp sched.Mapping) (ties int) {
	nT, nM := k.nT, k.nM
	// Phase 1 for the first round: fold the per-task minima into the
	// target; later rounds get it from commit, whose refresh loop already
	// visits every remaining task.
	t0 := foldStart(useMax)
	for _, t := range k.order {
		t0 = fold(t0, k.best[t], useMax)
	}
	target := math.Float64frombits(t0)
	for remaining := nT; remaining > 0; remaining-- {
		// Phase 2: gather every tied (task, machine) pair achieving target
		// from the cached rows — no recomputation. k.order ascending keeps
		// the canonical task-major candidate order.
		k.cands = k.cands[:0]
		for _, t := range k.order {
			bt := math.Float64frombits(k.best[t])
			if !approxEqual(bt, target) {
				continue
			}
			base := t * nM
			row := k.rows[base : base+nM]
			for m := 0; m < nM; m++ {
				if approxEqual(math.Float64frombits(row[m]), bt) {
					k.cands = append(k.cands, base+m) // == pairKey(t, m, nM)
				}
			}
		}
		if len(k.cands) > 1 {
			ties++
		}
		key := tb.Choose(k.cands)
		t, m := pairFromKey(key, nM)
		mp.Assign[t] = m
		ready[m] += k.etc[t*nM+m]
		target = k.commit(t, m, ready[m], useMax)
	}
	return ties
}

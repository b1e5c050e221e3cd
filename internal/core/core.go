// Package core implements the paper's primary contribution: the iterative
// technique for minimizing the completion times of non-makespan machines.
//
// Given a mapping heuristic, the technique repeatedly
//
//  1. runs the heuristic on the currently considered tasks and machines
//     (the first run, over everything, is the "original mapping"),
//  2. identifies the makespan machine, freezes it together with the tasks
//     assigned to it, removes both from consideration, and
//  3. resets the remaining machines to their initial ready times,
//
// until a single machine remains. Each machine's final completion time is
// the one it had in the iteration in which it was frozen (or the last
// iteration, for the survivor). The engine records a full Trace so
// experiments can compare every iteration against the paper's tables.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"repro/internal/heuristics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// PolicyFunc supplies the tie-breaking policy for each iteration (iteration
// 0 is the original mapping). Stateful policies (e.g. *tiebreak.Random) may
// be returned repeatedly; fresh policies may be built per iteration. It is
// called only for iterations the engine computes: an iteration derived from
// its predecessor (see IterateOpts) makes no choice.
type PolicyFunc func(iteration int) tiebreak.Policy

// Deterministic returns the canonical deterministic policy for every
// iteration (lowest-index tie-breaking), the convention under which the
// paper proves its invariance theorems.
func Deterministic() PolicyFunc {
	return func(int) tiebreak.Policy { return tiebreak.First{} }
}

// FixedPolicy returns p for every iteration.
func FixedPolicy(p tiebreak.Policy) PolicyFunc {
	return func(int) tiebreak.Policy { return p }
}

// Iteration is one run of the heuristic within the technique, in the global
// coordinates of the full instance.
type Iteration struct {
	// Index is 0 for the original mapping.
	Index int
	// Tasks and Machines list the considered (global) indices, ascending.
	Tasks, Machines []int
	// Assign[i] is the global machine assigned to Tasks[i].
	Assign []int
	// Completion[j] is Machines[j]'s completion time under this iteration's
	// mapping (initial ready time plus assigned ETCs).
	Completion []float64
	// Makespan is the largest entry of Completion, and MakespanMachine the
	// global index of the machine attaining it (ties to the lowest index).
	Makespan        float64
	MakespanMachine int
	// Frozen is the machine removed (with its tasks) after this iteration.
	// Under the paper's rule it equals MakespanMachine; ablation freeze
	// rules may differ. It is meaningless for the last iteration.
	Frozen int
}

// MachineCompletion returns this iteration's completion time for global
// machine m, and whether m is active in the iteration.
func (it *Iteration) MachineCompletion(m int) (float64, bool) {
	for j, mm := range it.Machines {
		if mm == m {
			return it.Completion[j], true
		}
	}
	return 0, false
}

// MachineOutcome classifies a machine's final completion time against the
// original mapping.
type MachineOutcome int

const (
	Unchanged MachineOutcome = iota
	Improved
	Worsened
)

// String returns the label used in experiment reports.
func (o MachineOutcome) String() string {
	switch o {
	case Improved:
		return "improved"
	case Worsened:
		return "worsened"
	case Unchanged:
		return "unchanged"
	default:
		return fmt.Sprintf("MachineOutcome(%d)", int(o))
	}
}

// Trace is the complete record of one run of the iterative technique.
type Trace struct {
	Instance   *sched.Instance
	Heuristic  string
	Iterations []Iteration
	// FinalAssign[t] is task t's machine in the combined final mapping: the
	// assignment from the iteration in which the task's machine was frozen
	// (or from the last iteration).
	FinalAssign []int
	// FinalCompletion[m] is machine m's final completion time. Machines
	// that end up with no considered tasks finish at their initial ready
	// time.
	FinalCompletion []float64
}

// Original returns the original (iteration-0) mapping as a full Schedule.
func (tr *Trace) Original() (*sched.Schedule, error) {
	it := tr.Iterations[0]
	mp := sched.Mapping{Assign: make([]int, tr.Instance.Tasks())}
	copy(mp.Assign, it.Assign) // iteration 0 covers all tasks in order
	return sched.Evaluate(tr.Instance, mp)
}

// FinalSchedule evaluates the combined final mapping.
func (tr *Trace) FinalSchedule() (*sched.Schedule, error) {
	return sched.Evaluate(tr.Instance, sched.Mapping{Assign: tr.FinalAssign})
}

// OriginalMakespan returns the original mapping's makespan.
func (tr *Trace) OriginalMakespan() float64 { return tr.Iterations[0].Makespan }

// FinalMakespan returns the largest final completion time over all
// machines.
func (tr *Trace) FinalMakespan() float64 {
	ms := math.Inf(-1)
	for _, c := range tr.FinalCompletion {
		ms = math.Max(ms, c)
	}
	return ms
}

// MakespanIncreased reports whether the technique made the overall makespan
// strictly worse than the original mapping's — the pathology the paper
// demonstrates for Min-Min/MCT/MET under random ties and for SWA/KPB/
// Sufferage even under deterministic ties.
func (tr *Trace) MakespanIncreased() bool {
	return tr.FinalMakespan() > tr.OriginalMakespan()+comparisonEpsilon
}

// comparisonEpsilon matches the heuristics' tie tolerance.
const comparisonEpsilon = 1e-9

// MachineOutcomes classifies every machine's final completion time against
// the original mapping.
func (tr *Trace) MachineOutcomes() []MachineOutcome {
	out := make([]MachineOutcome, tr.Instance.Machines())
	for m := range out {
		out[m] = tr.MachineOutcome(m)
	}
	return out
}

// MachineOutcome classifies machine m's final completion time against the
// original mapping.
func (tr *Trace) MachineOutcome(m int) MachineOutcome {
	before, _ := tr.Iterations[0].MachineCompletion(m)
	after := tr.FinalCompletion[m]
	switch {
	case after < before-comparisonEpsilon:
		return Improved
	case after > before+comparisonEpsilon:
		return Worsened
	default:
		return Unchanged
	}
}

// Changed reports whether any iteration's mapping differs from the original
// mapping restricted to that iteration's tasks — i.e. whether the technique
// changed anything at all (the theorems say it cannot for Min-Min/MCT/MET
// with deterministic ties).
func (tr *Trace) Changed() bool {
	orig := tr.Iterations[0]
	origAssign := make(map[int]int, len(orig.Tasks))
	for i, t := range orig.Tasks {
		origAssign[t] = orig.Assign[i]
	}
	for _, it := range tr.Iterations[1:] {
		for i, t := range it.Tasks {
			if it.Assign[i] != origAssign[t] {
				return true
			}
		}
	}
	return false
}

// FreezeRule selects which machine is removed (with its tasks) after each
// iteration.
type FreezeRule int

const (
	// FreezeMakespan freezes the last-finishing machine — the paper's rule.
	FreezeMakespan FreezeRule = iota
	// FreezeMinCompletion freezes the earliest-finishing machine instead.
	// It exists for ablation: it shows that the technique's point is
	// specifically to re-optimise around the *makespan* machine, and that
	// freezing from the other end merely replays the theorem heuristics'
	// mappings while destroying the improvement opportunity for the rest.
	FreezeMinCompletion
)

// Options tune the iterative technique for ablation studies. The zero value
// is the paper's technique.
type Options struct {
	// MaxIterations caps the number of heuristic runs (0 = no cap, iterate
	// until one machine remains). MaxIterations=1 computes only the
	// original mapping; 2 adds the first iterative mapping — the setting of
	// the paper's example tables.
	MaxIterations int
	// FreezeRule selects the frozen machine per iteration.
	FreezeRule FreezeRule
	// Observer, when non-nil, receives obs events (IterationStart,
	// HeuristicDone, MachineFrozen, TraceDone) as the technique runs, with
	// tie-breaking counters gathered through a tiebreak.Counting wrapper.
	// A nil Observer is free: no events are constructed, no clock is read,
	// and the trace is bit-for-bit what it was before observability
	// existed. Event timing fields are wall-clock and observational only —
	// they never influence scheduling decisions.
	Observer obs.Observer
}

// Iterate runs the paper's iterative technique to completion.
func Iterate(in *sched.Instance, h heuristics.Heuristic, policy PolicyFunc) (*Trace, error) {
	return IterateOpts(in, h, policy, Options{})
}

// IterateOpts is Iterate with ablation options: one run on a fresh
// Workspace, whose trace the caller then owns outright. The heuristic's
// runs borrow a pooled heuristics.Scratch, which no slice of the trace
// aliases.
func IterateOpts(in *sched.Instance, h heuristics.Heuristic, policy PolicyFunc, opts Options) (*Trace, error) {
	w := &Workspace{a: arena{hs: heuristics.GetScratch()}}
	tr, err := w.Iterate(in, h, policy, opts)
	heuristics.PutScratch(w.a.hs)
	// The trace keeps the workspace alive; let go of the scratch nobody
	// will reuse (the restricted instance, the seed, the active sets).
	w.a = arena{}
	return tr, err
}

// Workspace is reusable storage for runs of the iterative technique: the
// engine's arena (active sets, local machine table, restricted instance,
// seed, the heuristics' Scratch) and the trace with the backing arrays of
// its slices. Every run maps straight into its iteration's Assign slice. A
// caller that runs many traces in turn, such as a service worker, keeps one
// Workspace; once it has grown, a trace of a greedy heuristic, or of
// Seeded over one, allocates nothing beyond its heuristic name. The search
// heuristics (Seeded over them too) still allocate their populations and
// walks.
//
// Reuse contract: the Trace that Iterate returns, and every slice in it,
// stay valid only until the next Iterate on the same Workspace, which
// overwrites them; a caller that keeps a trace longer copies it first (or
// uses IterateOpts, which gives each trace its own). Each Iterate resets
// all of the workspace at its start, so a run that returned an error or
// panicked partway leaves nothing behind that a later run can see. A
// Workspace is not safe for concurrent use. The zero value is ready.
type Workspace struct {
	tr Trace
	a  arena
}

// Iterate runs the technique as IterateOpts does, in the workspace's
// storage (see the reuse contract on Workspace).
//
// For a restricting heuristic (heuristics.Restricts: Min-Min, MCT, MET, OLB
// and Seeded over them) the engine derives iterations instead of computing
// them. Once such an iteration runs with no tie (every choice had one
// candidate), the theorems' induction fixes every later one: its mapping is
// the previous mapping restricted to the active sets, its completion vector
// the previous one without the frozen machine. A derived iteration is
// bit-identical to a computed one and emits the same observer events; its
// HeuristicDone counts one single-candidate choice per task, as the
// skipped run would have. Duplex is computed in every iteration, but its
// Min-Min half is derived the same way while the previous iteration's
// winner was a tie-free Min-Min mapping (see runHeuristic).
func (w *Workspace) Iterate(in *sched.Instance, h heuristics.Heuristic, policy PolicyFunc, opts Options) (*Trace, error) {
	if in == nil {
		return nil, errors.New("core: nil instance")
	}
	if h == nil {
		return nil, errors.New("core: nil heuristic")
	}
	if policy == nil {
		return nil, errors.New("core: nil policy")
	}
	if opts.MaxIterations < 0 {
		return nil, fmt.Errorf("core: MaxIterations %d < 0", opts.MaxIterations)
	}
	if opts.FreezeRule != FreezeMakespan && opts.FreezeRule != FreezeMinCompletion {
		return nil, fmt.Errorf("core: unknown freeze rule %d", opts.FreezeRule)
	}
	nT, nM := in.Tasks(), in.Machines()
	maxIters := nM // one machine is frozen per iteration
	if opts.MaxIterations > 0 && opts.MaxIterations < maxIters {
		maxIters = opts.MaxIterations
	}
	// A hint, never a cap: when every iteration freezes at least one task
	// (the makespan rule over zero ready times) a trace runs at most nT
	// iterations. A first array sized for that many holds a typical trace
	// whole; a longer one, such as FreezeMinCompletion on one task, grows
	// in carve.
	expect := min(maxIters, nT)
	name := h.Name()
	tr, a := &w.tr, &w.a
	// The previous trace's iterations point into carve arrays that reset
	// may drop; clearing them lets those arrays go.
	clear(tr.Iterations[:cap(tr.Iterations)])
	a.reset(nT, nM)
	if a.hs == nil {
		a.hs = new(heuristics.Scratch)
	}
	*tr = Trace{
		Instance:        in,
		Heuristic:       name,
		Iterations:      reuse(tr.Iterations, expect)[:0],
		FinalAssign:     reuse(tr.FinalAssign, nT),
		FinalCompletion: reuse(tr.FinalCompletion, nM),
	}
	for m := range tr.FinalCompletion {
		tr.FinalCompletion[m] = in.Ready(m) // the default for machines left idle
	}

	observer := opts.Observer
	var runStart time.Time
	if observer != nil {
		runStart = time.Now()
	}

	// derived turns on once an iteration of a restricting heuristic runs
	// without a tie: by the theorems' induction every later iteration is
	// then its predecessor restricted to the active sets (see derive), with
	// no restriction, heuristic run or tie-breaking choice. The induction
	// needs the iteration's mapping to be the heuristic's own. A seeded run
	// returns its seed instead when the seed is strictly better, so for a
	// Seedable heuristic only the original mapping, which has no seed, turns
	// it on.
	restricts := heuristics.Restricts(h)
	_, seedable := h.(heuristics.Seedable)
	derived := false

	for iter := 0; len(a.activeMachines) > 0 && len(a.activeTasks) > 0 && iter < maxIters; iter++ {
		activeTasks, activeMachines := a.activeTasks, a.activeMachines
		k, m := len(activeTasks), len(activeMachines)
		var sub *sched.Instance
		var tb tiebreak.Policy
		if derived {
			// What the skipped run would have counted: one single-candidate
			// choice per task.
			a.counting = tiebreak.Counting{Invocations: int64(k), Candidates: int64(k)}
		} else {
			// The original mapping runs on the caller's instance itself;
			// later iterations rewrite the arena's one restricted instance.
			sub = in
			if iter > 0 {
				if err := in.RestrictInto(&a.sub, activeTasks, activeMachines); err != nil {
					return nil, fmt.Errorf("core: iteration %d: %w", iter, err)
				}
				sub = &a.sub
			}
			tb = policy(iter)
			// The arena's Counting sees the run's ties, for the observer
			// and for turning derivation on. Held in the arena, it costs
			// no allocation.
			if observer != nil || restricts {
				a.counting = tiebreak.Counting{Inner: tb}
				tb = &a.counting
			}
		}
		var heurStart time.Time
		if observer != nil {
			observer.Observe(obs.IterationStart{Iteration: iter, Tasks: k, Machines: m})
			heurStart = time.Now()
		}
		// Carve this iteration's slices: Tasks, Assign and Machines from one
		// int span, Completion from the float arena. A fresh array is sized
		// for the expected iterations left at this iteration's width.
		left := max(expect-iter, 1) + 1
		ints := carve(&a.ints, 2*k+m, (2*k+m)*left/2, &a.retired)
		a.intsUsed += 2*k + m
		a.floatsUsed += m
		it := Iteration{
			Index:      iter,
			Tasks:      ints[:k:k],
			Assign:     ints[k : 2*k : 2*k],
			Machines:   ints[2*k:],
			Completion: carve(&a.floats, m, m*left/2, &a.retired),
		}
		copy(it.Tasks, activeTasks)
		copy(it.Machines, activeMachines)
		var selected string
		if derived {
			derive(&it, &tr.Iterations[iter-1])
		} else {
			var prev *Iteration
			if iter > 0 {
				prev = &tr.Iterations[iter-1]
			}
			// The heuristic maps straight into it.Assign, in local
			// machine coordinates, which the loop below turns global in
			// place.
			mp, sel, err := a.runHeuristic(h, sub, tb, prev, it.Assign)
			if err != nil {
				return nil, fmt.Errorf("core: iteration %d: %w", iter, err)
			}
			if _, err := sched.Completions(sub, mp, it.Completion); err != nil {
				return nil, fmt.Errorf("core: iteration %d: heuristic %s produced invalid mapping: %w", iter, name, err)
			}
			for i, l := range mp.Assign {
				it.Assign[i] = activeMachines[l]
			}
			selected = sel
			derived = restricts && a.counting.Ties == 0 && (iter == 0 || !seedable)
		}
		msLocal, ms := sched.MakespanMachine(it.Completion)
		it.MakespanMachine = activeMachines[msLocal]
		it.Makespan = ms
		if observer != nil {
			observer.Observe(obs.HeuristicDone{
				Iteration:       iter,
				Heuristic:       name,
				Makespan:        it.Makespan,
				MakespanMachine: it.MakespanMachine,
				TiebreakCalls:   a.counting.Invocations,
				Ties:            a.counting.Ties,
				Candidates:      a.counting.Candidates,
				Selected:        selected,
				ElapsedNS:       time.Since(heurStart).Nanoseconds(),
			})
		}
		switch opts.FreezeRule {
		case FreezeMinCompletion:
			minLocal := 0
			for j, c := range it.Completion {
				if c < it.Completion[minLocal] {
					minLocal = j
				}
			}
			it.Frozen = activeMachines[minLocal]
		default:
			it.Frozen = it.MakespanMachine
		}
		tr.Iterations = append(tr.Iterations, it)

		// Record final state for this iteration's machines; later
		// iterations overwrite the survivors.
		for j, m := range it.Machines {
			tr.FinalCompletion[m] = it.Completion[j]
		}
		for i, t := range it.Tasks {
			tr.FinalAssign[t] = it.Assign[i]
		}

		if len(activeMachines) == 1 {
			break
		}
		// Freeze the selected machine and its tasks, compacting the active
		// sets in place (it.Tasks and it.Machines are copies).
		frozen := it.Frozen
		a.freeze(frozen, it.Tasks, it.Assign)
		if observer != nil {
			completion, _ := it.MachineCompletion(frozen)
			observer.Observe(obs.MachineFrozen{
				Iteration:   iter,
				Machine:     frozen,
				Completion:  completion,
				FrozenTasks: len(it.Tasks) - len(a.activeTasks),
			})
		}
	}
	if observer != nil {
		done := obs.TraceDone{
			Iterations:    len(tr.Iterations),
			FinalMakespan: tr.FinalMakespan(),
			ElapsedNS:     time.Since(runStart).Nanoseconds(),
		}
		if len(tr.Iterations) > 0 {
			done.OriginalMakespan = tr.OriginalMakespan()
		}
		observer.Observe(done)
	}
	return tr, nil
}

// arena is a Workspace's working storage. Within a trace the active sets
// only shrink, so everything is sized by the first iteration that needs it
// and reused by every later one: the restricted instance, the seed, and
// the global-to-local machine table. The Iterations' own slices are carved
// from shared backing arrays. Across traces reset keeps every buffer that
// is large enough.
type arena struct {
	// activeTasks and activeMachines are the considered global indices,
	// ascending, compacted in place as machines freeze.
	activeTasks, activeMachines []int
	// local[g] is active machine g's index in activeMachines; -1 once g is
	// frozen.
	local []int
	sub   sched.Instance // the restricted instance of iterations 1, 2, ...
	seed  []int
	// hs is the heuristics' run scratch; mapped backs Workspace.Map.
	hs     *heuristics.Scratch
	mapped []int
	// ints and floats back the Iterations' slices. intsUsed and floatsUsed
	// count what the current trace has carved, so the next reset can size
	// each to hold a repeat of it in one array.
	ints                 []int
	floats               []float64
	intsUsed, floatsUsed int
	// retired is the bytes of the arrays carve abandoned during the
	// current trace, which its earlier iterations still reference.
	retired int
	// counting wraps the policy of each computed run that has an observer
	// or a restricting heuristic, so the engine sees its ties.
	counting tiebreak.Counting
	// minMinKnown is set while the previous iteration's Duplex run chose
	// a Min-Min mapping that offered the policy only single candidates.
	minMinKnown bool
}

// reset readies the arena for a trace over nT tasks and nM machines. It
// rewrites everything a trace reads before writing it, so nothing from an
// earlier trace, finished or abandoned, can reach this one. ints and floats
// grow to what the previous trace carved: the engine cannot know this
// trace's iteration count ahead of time, and carve covers any shortfall.
func (a *arena) reset(nT, nM int) {
	a.activeTasks = ascending(a.activeTasks, nT)
	a.activeMachines = ascending(a.activeMachines, nM)
	a.local = ascending(a.local, nM)
	a.ints = reuse(a.ints, a.intsUsed)[:0]
	a.floats = reuse(a.floats, a.floatsUsed)[:0]
	a.intsUsed, a.floatsUsed, a.retired = 0, 0, 0
	a.minMinKnown = false
}

// Footprint returns the bytes the workspace's buffers hold, the heuristics'
// Scratch included, so an owner that keeps a Workspace between runs can
// bound what it retains. The Workspace value itself is its owner's to
// count.
func (w *Workspace) Footprint() int {
	const word = int(unsafe.Sizeof(0))
	a := &w.a
	n := word * (cap(a.activeTasks) + cap(a.activeMachines) + cap(a.local) + cap(a.seed) + cap(a.ints) + cap(a.mapped))
	n += 8*cap(a.floats) + a.retired + a.hs.Footprint()
	// The restricted instance: its ready times, and its matrix, a heap
	// object of its own once RestrictInto made it, with its buffers.
	n += a.sub.Footprint()
	if m := a.sub.ETC(); m != nil {
		n += int(unsafe.Sizeof(*m)) + m.Footprint()
	}
	tr := &w.tr
	n += int(unsafe.Sizeof(Iteration{}))*cap(tr.Iterations) + word*cap(tr.FinalAssign) + 8*cap(tr.FinalCompletion)
	return n
}

// derive fills it, whose Tasks and Machines are already set, from prev
// without running the heuristic: the assignment is prev's without the frozen
// machine's tasks, and the completion vector is prev's without the frozen
// machine. The latter is bit-identical to a recomputation, which sums the
// same ETCs onto the same ready time in the same task order.
func derive(it, prev *Iteration) {
	n := 0
	for _, g := range prev.Assign {
		if g != prev.Frozen {
			it.Assign[n] = g
			n++
		}
	}
	n = 0
	for j, g := range prev.Machines {
		if g != prev.Frozen {
			it.Completion[n] = prev.Completion[j]
			n++
		}
	}
}

// carve returns the next n elements of *buf, capacity-capped so an append
// through one Iteration's slice cannot write into the next. When the spare
// capacity is short it starts a new backing array of max(n, 2·cap, want)
// elements or more (its allocation's size class), so a trace holds O(what
// it carves); slices carved earlier keep the old one, whose bytes carve
// adds to *retired.
func carve[T any](buf *[]T, n, want int, retired *int) []T {
	if cap(*buf)-len(*buf) < n {
		if len(*buf) > 0 {
			*retired += cap(*buf) * int(unsafe.Sizeof((*buf)[0]))
		}
		*buf = slices.Grow([]T(nil), max(n, 2*cap(*buf), want))
	}
	l := len(*buf)
	*buf = (*buf)[:l+n]
	return (*buf)[l : l+n : l+n]
}

// freeze removes machine frozen and the tasks assigned to it (tasks and
// assign are the iteration's global lists) from the active sets.
func (a *arena) freeze(frozen int, tasks, assign []int) {
	keep := a.activeTasks[:0]
	for i, t := range tasks {
		if assign[i] != frozen {
			keep = append(keep, t)
		}
	}
	a.activeTasks = keep
	ms := a.activeMachines[:0]
	for _, m := range a.activeMachines {
		if m != frozen {
			a.local[m] = len(ms)
			ms = append(ms, m)
		}
	}
	a.activeMachines = ms
	a.local[frozen] = -1
}

// selector is a heuristic whose run names the side its mapping came from
// and can take its Min-Min half as known (heuristics.Duplex has the
// contract).
type selector interface {
	MapSelectInto(in *sched.Instance, tb tiebreak.Policy, sc *heuristics.Scratch, minMin, dst []int) (sched.Mapping, string, int, error)
}

// runHeuristic invokes h on sub into dst, seeding it with the previous
// iteration's mapping (restricted to the active sets) when the heuristic
// supports seeding. For Duplex the returned string names the side whose
// mapping won, for the HeuristicDone event; it is empty otherwise.
//
// Duplex's Min-Min half restricts as Min-Min does: when the previous
// iteration's winner was a Min-Min mapping whose run offered the policy
// only single candidates, that mapping restricted to the active sets is
// this iteration's Min-Min mapping, whichever machine froze with its
// tasks. It is written straight into dst, and only Max-Min runs. The
// arena's Counting, when it wraps tb,
// gets the skipped run's one single-candidate choice per task, as derive
// reports. Any other selector, such as a wrapper of Duplex, runs both
// halves.
func (a *arena) runHeuristic(h heuristics.Heuristic, sub *sched.Instance, tb tiebreak.Policy,
	prev *Iteration, dst []int) (sched.Mapping, string, error) {
	if sd, ok := h.(heuristics.Seedable); ok && prev != nil && a.seedFrom(prev) {
		mp, err := sd.MapSeededInto(sub, tb, a.hs, sched.Mapping{Assign: a.seed}, dst)
		return mp, "", err
	}
	if d, ok := h.(selector); ok {
		var minMin []int
		if _, own := h.(heuristics.Duplex); own && a.minMinKnown && a.restrictPrev(prev, dst) {
			minMin = dst
			if tb == &a.counting {
				k := int64(len(minMin))
				a.counting.Invocations += k
				a.counting.Candidates += k
			}
		}
		mp, side, minTies, err := d.MapSelectInto(sub, tb, a.hs, minMin, dst)
		a.minMinKnown = err == nil && side == "min-min" && minTies == 0
		return mp, side, err
	}
	mp, err := h.MapInto(sub, tb, a.hs, dst)
	return mp, "", err
}

// seedFrom writes the seed, prev's mapping restricted to the active sets,
// into a.seed (see restrictPrev).
func (a *arena) seedFrom(prev *Iteration) bool {
	a.seed = reuse(a.seed, len(a.activeTasks))
	return a.restrictPrev(prev, a.seed)
}

// restrictPrev writes prev's mapping restricted to the active sets into
// dst, one entry per active task, in local coordinates, by a merge walk:
// the active tasks are an ascending subsequence of prev.Tasks, and every
// one was mapped in the previous iteration to a still-active machine (the
// frozen machine's tasks were removed with it). It reports false,
// defensively, when prev does not cover the active sets.
func (a *arena) restrictPrev(prev *Iteration, dst []int) bool {
	p := 0
	for i, t := range a.activeTasks {
		for p < len(prev.Tasks) && prev.Tasks[p] < t {
			p++
		}
		if p == len(prev.Tasks) || prev.Tasks[p] != t || a.local[prev.Assign[p]] < 0 {
			return false
		}
		dst[i] = a.local[prev.Assign[p]]
	}
	return true
}

// Map runs one mapping of in by h, as Iterate runs its original mapping,
// in the workspace's storage: the returned mapping stays valid until the
// next Map on w. Map leaves the trace of the last Iterate intact.
func (w *Workspace) Map(in *sched.Instance, h heuristics.Heuristic, tb tiebreak.Policy) (sched.Mapping, error) {
	a := &w.a
	if a.hs == nil {
		a.hs = new(heuristics.Scratch)
	}
	mp, err := h.MapInto(in, tb, a.hs, a.mapped)
	if err != nil {
		return sched.Mapping{}, err
	}
	a.mapped = mp.Assign
	return mp, nil
}

// ascending returns 0, 1, ..., n-1 in buf's storage when it is large
// enough.
func ascending(buf []int, n int) []int {
	s := reuse(buf, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// reuse returns s resliced to length n when its capacity allows, else a new
// slice of length n whose capacity is its allocation's whole size class,
// so that Footprint, counted by capacity, counts every byte allocated. The
// contents are the caller's to overwrite.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return slices.Grow([]T(nil), n)[:n]
	}
	return s[:n]
}

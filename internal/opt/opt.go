// Package opt solves small unrelated-machine makespan problems (R||Cmax)
// exactly, by depth-first branch and bound. It exists so experiments and
// tests can report true optimality gaps for the heuristics — the role the
// Braun et al. comparison study delegates to long GA runs — and to certify
// counterexample properties on the paper-scale instances (a handful of tasks
// and machines), where exact search is cheap.
package opt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/bounds"
	"repro/internal/heuristics"
	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// Result is the outcome of an exact solve.
type Result struct {
	Mapping  sched.Mapping
	Makespan float64
	// Optimal is false when the node budget ran out; Mapping is then the
	// best incumbent found.
	Optimal bool
	Nodes   int64
}

// ErrTooLarge is returned when the instance exceeds the solver's intended
// scale (branch and bound on machines^tasks assignments).
var ErrTooLarge = errors.New("opt: instance too large for exact search (use the heuristics)")

// MaxTasks is the solver's task-count guard.
const MaxTasks = 24

// MaxNodes is the solver's node budget: the search stops after exploring
// this many nodes and returns its best incumbent.
const MaxNodes = 5_000_000

// Solve finds a makespan-optimal mapping by branch and bound. Tasks are
// ordered by decreasing fastest execution time (hardest first), machines
// are tried in increasing ETC order, and subtrees are pruned with the
// bounds package's per-suffix lower bounds and an MCT/Min-Min incumbent.
// After MaxNodes explored nodes it returns the best incumbent with
// Optimal false.
func Solve(in *sched.Instance) (*Result, error) { return solve(in, MaxNodes) }

// solve is Solve under a node budget of maxNodes.
func solve(in *sched.Instance, maxNodes int64) (*Result, error) {
	if in == nil {
		return nil, errors.New("opt: nil instance")
	}
	if in.Tasks() > MaxTasks {
		return nil, fmt.Errorf("%w: %d tasks > %d", ErrTooLarge, in.Tasks(), MaxTasks)
	}
	nT, nM := in.Tasks(), in.Machines()

	// Incumbent: best of MCT and Min-Min.
	best := math.Inf(1)
	var bestAssign []int
	for _, h := range []heuristics.Heuristic{heuristics.MCT{}, heuristics.MinMin{}} {
		mp, err := h.Map(in, tiebreak.First{})
		if err != nil {
			return nil, err
		}
		s, err := sched.Evaluate(in, mp)
		if err != nil {
			return nil, err
		}
		if ms := s.Makespan(); ms < best {
			best = ms
			bestAssign = append([]int(nil), mp.Assign...)
		}
	}

	globalLB := bounds.Best(in)
	if best <= globalLB+1e-12 {
		return &Result{
			Mapping:  sched.Mapping{Assign: bestAssign},
			Makespan: best,
			Optimal:  true,
		}, nil
	}

	// Order tasks hardest-first: larger minimum ETC earlier.
	order := make([]int, nT)
	for i := range order {
		order[i] = i
	}
	minETC := make([]float64, nT)
	for t := 0; t < nT; t++ {
		_, minETC[t] = in.ETC().MinMachine(t)
	}
	sort.SliceStable(order, func(a, b int) bool { return minETC[order[a]] > minETC[order[b]] })

	// suffixWork[i] = sum of minimum ETCs of tasks order[i:], for the
	// averaging prune.
	suffixWork := make([]float64, nT+1)
	for i := nT - 1; i >= 0; i-- {
		suffixWork[i] = suffixWork[i+1] + minETC[order[i]]
	}
	// suffixTaskLB[i] = max over tasks order[i:] of their best possible
	// completion from scratch, a static per-task prune.
	suffixTaskLB := make([]float64, nT+1)
	for i := nT - 1; i >= 0; i-- {
		t := order[i]
		bestCT := math.Inf(1)
		for m := 0; m < nM; m++ {
			bestCT = math.Min(bestCT, in.Ready(m)+in.ETC().At(t, m))
		}
		suffixTaskLB[i] = math.Max(suffixTaskLB[i+1], bestCT)
	}

	loads := in.ReadyTimes()
	assign := make([]int, nT)
	var nodes int64
	aborted := false

	// machine try-order per task: increasing ETC (promising first).
	tryOrder := make([][]int, nT)
	for t := 0; t < nT; t++ {
		ms := make([]int, nM)
		for m := range ms {
			ms[m] = m
		}
		row := in.ETC().Row(t)
		sort.SliceStable(ms, func(a, b int) bool { return row[ms[a]] < row[ms[b]] })
		tryOrder[t] = ms
	}

	var maxLoad func() float64
	maxLoad = func() float64 {
		mx := 0.0
		for _, l := range loads {
			mx = math.Max(mx, l)
		}
		return mx
	}

	var dfs func(i int)
	dfs = func(i int) {
		if aborted {
			return
		}
		nodes++
		if nodes > maxNodes {
			aborted = true
			return
		}
		if i == nT {
			if ms := maxLoad(); ms < best {
				best = ms
				copy(bestAssign, assign)
			}
			return
		}
		cur := maxLoad()
		// Prune: current partial load already no better than incumbent.
		if cur >= best {
			return
		}
		// Prune: averaging bound on the remaining work.
		totalLoad := 0.0
		for _, l := range loads {
			totalLoad += l
		}
		if (totalLoad+suffixWork[i])/float64(nM) >= best {
			return
		}
		// Prune: some remaining task cannot beat the incumbent anywhere.
		if suffixTaskLB[i] >= best {
			return
		}
		t := order[i]
		for _, m := range tryOrder[t] {
			newLoad := loads[m] + in.ETC().At(t, m)
			if newLoad >= best {
				continue
			}
			loads[m] = newLoad
			assign[t] = m
			dfs(i + 1)
			loads[m] = newLoad - in.ETC().At(t, m)
			if aborted {
				return
			}
		}
	}
	dfs(0)

	if bestAssign == nil {
		return nil, errors.New("opt: no incumbent found (internal error)")
	}
	res := &Result{
		Mapping:  sched.Mapping{Assign: bestAssign},
		Makespan: best,
		Optimal:  !aborted,
		Nodes:    nodes,
	}
	if err := res.Mapping.Validate(in); err != nil {
		return nil, fmt.Errorf("opt: produced invalid mapping: %w", err)
	}
	return res, nil
}

// Package heuristics implements the resource-allocation heuristics studied
// by the paper — Minimum Execution Time (MET), Minimum Completion Time
// (MCT), Min-Min, Sufferage, K-Percent Best, the Switching Algorithm (SWA)
// and Genitor — together with the standard companion baselines from the
// literature the paper builds on (OLB, Max-Min, Duplex) and the generic
// seeding wrapper the paper's conclusion proposes.
//
// Every heuristic maps a sched.Instance to a complete sched.Mapping,
// resolving ties through an explicit tiebreak.Policy; ties are the paper's
// central mechanism, so no heuristic is allowed a hidden tie rule.
package heuristics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sched"
	"repro/internal/tiebreak"
)

// Epsilon is the absolute tolerance used when comparing completion times for
// equality. The paper's examples use small exact values; the tolerance only
// matters for generated float workloads, where exact ties are measure-zero
// but accumulated arithmetic can produce near-ties that should be treated as
// the same value.
const Epsilon = 1e-9

// approxEqual reports whether a and b are equal within Epsilon.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= Epsilon
}

// ctBits is a completion time's bit pattern, ordered as the completion
// times are. Every completion time CT = ETC + ready lies in (0, +Inf]: an
// ETC entry is positive and finite, and a ready time is at least zero
// (possibly -0, which the sum absorbs). Over that range math.Float64bits is
// strictly increasing, so the min or max of bit patterns is the min or max
// of the values, and an unsigned min or max compiles to a conditional move
// where a float compare costs a data-dependent branch. A raw ready vector
// is no such range: -0's pattern sorts after every positive one, so OLB's
// scan of it compares floats.
func ctBits(ct float64) uint64 { return math.Float64bits(ct) }

// Heuristic maps all tasks of an instance onto its machines.
//
// Every heuristic has one implementation, MapInto, which works in a
// caller-owned Scratch and writes the mapping into the caller's dst; Map
// runs it on a pooled Scratch into a fresh mapping, which the caller then
// owns outright.
//
// Reuse contract: a run must not retain in, its matrix, the seed of
// Seedable.MapSeededInto, sc or dst after returning, and the returned
// mapping must not alias the seed. The iterative engine (internal/core)
// rewrites one restricted instance, one seed buffer and one Scratch in
// place between iterations, so a retained reference would silently change
// under the heuristic. The search heuristics (Genitor, GA, SA, tabu) clone
// the seed before keeping it in a population or a walk, and Seeded copies
// a winning seed into its result. The mapping MapInto and MapSeededInto
// return aliases dst, which grows only when shorter than the task count;
// it stays valid until the caller next reuses dst. A Scratch belongs to
// one goroutine at a time.
type Heuristic interface {
	// Name is a stable identifier, e.g. "min-min".
	Name() string
	// Map computes a complete mapping. Implementations must not mutate the
	// instance and must resolve every choice among equally good candidates
	// through tb.
	Map(in *sched.Instance, tb tiebreak.Policy) (sched.Mapping, error)
	// MapInto is Map, working in sc and writing the mapping into dst's
	// storage.
	MapInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, dst []int) (sched.Mapping, error)
}

// Seedable is a Heuristic that can incorporate a previously found mapping,
// guaranteeing the result is never worse (in makespan) than the seed. The
// paper's Genitor implements this natively (as do GA, SA and tabu); Seeded
// adapts any Heuristic.
type Seedable interface {
	Heuristic
	// MapSeededInto is MapInto with a starting solution. The returned
	// mapping's makespan is at most the seed's. seed must not alias dst.
	MapSeededInto(in *sched.Instance, tb tiebreak.Policy, sc *Scratch, seed sched.Mapping, dst []int) (sched.Mapping, error)
}

// restricting marks the heuristics for which the paper's invariance
// induction (§3.2–3.4) holds under any tie policy. Take a run that offered
// the policy only single candidates. Remove any one machine and the tasks
// that run put on it. A run on what is left again sees only single
// candidates, and it maps every remaining task to the same machine.
// Removing the machine leaves the other machines' ready times, and every
// remaining completion time, as they were. A unique minimum over a set stays
// the unique minimum over any subset that still holds it. The method is
// unexported so the set stays closed: Min-Min, MCT, MET and OLB, and Seeded
// exactly when its Inner is one of them. Each makes one tie-breaking choice
// per task, which the engine reports for a run it skips. Max-Min, Duplex and
// Sufferage have counterexamples in the paper, and KPB's subset size and
// SWA's switch depend on the machine count.
type restricting interface {
	restricts() bool
}

func (MinMin) restricts() bool { return true }
func (MCT) restricts() bool    { return true }
func (MET) restricts() bool    { return true }
func (OLB) restricts() bool    { return true }

// Seeded's induction holds from a run without a seed: its seed is then
// always the inner mapping, so MapSeededInto returns the inner mapping.
func (s Seeded) restricts() bool { return Restricts(s.Inner) }

// Restricts reports whether h has the restricting property: once a run of
// h offers the tie policy only single candidates, every run on a
// restriction (one machine and its tasks removed) reproduces it. The
// iterative engine derives such iterations instead of running h.
func Restricts(h Heuristic) bool {
	r, ok := h.(restricting)
	return ok && r.restricts()
}

// minIndicesInto is minIndices writing into buf (grown as needed, reused
// across calls); the returned slice aliases buf. Candidate order and
// tolerance semantics are identical to minIndices. Policies never retain the
// candidate slice (Recorder copies it), so reuse is safe.
func minIndicesInto(vals []float64, buf []int) []int {
	if len(vals) == 0 {
		return nil
	}
	mn := vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
	}
	return nearInto(vals, mn, buf)
}

// nearInto is minIndicesInto's gather over vals whose minimum mn is already
// known: it writes into buf the indices of the entries within Epsilon of
// mn, in ascending order. Every entry is at least mn, so the distance needs
// no math.Abs.
func nearInto(vals []float64, mn float64, buf []int) []int {
	buf = buf[:0]
	for i, v := range vals {
		if v-mn <= Epsilon {
			buf = append(buf, i)
		}
	}
	return buf
}

// minIndices returns the indices of vals within Epsilon of the minimum, in
// ascending order. It returns nil for an empty slice.
func minIndices(vals []float64) []int {
	if len(vals) == 0 {
		return nil
	}
	mn := vals[0]
	for _, v := range vals[1:] {
		if v < mn {
			mn = v
		}
	}
	var idx []int
	for i, v := range vals {
		if approxEqual(v, mn) {
			idx = append(idx, i)
		}
	}
	return idx
}

// maxIndices is minIndices for the maximum.
func maxIndices(vals []float64) []int {
	if len(vals) == 0 {
		return nil
	}
	mx := vals[0]
	for _, v := range vals[1:] {
		if v > mx {
			mx = v
		}
	}
	var idx []int
	for i, v := range vals {
		if approxEqual(v, mx) {
			idx = append(idx, i)
		}
	}
	return idx
}

// completionRow writes CT(t, m) = ETC(t, m) + ready[m] into dst, one entry
// per machine, and returns it.
func completionRow(in *sched.Instance, task int, ready []float64, dst []float64) []float64 {
	for m := range dst {
		dst[m] = in.ETC().At(task, m) + ready[m]
	}
	return dst
}

// completionRowMin is completionRow returning the row's least entry,
// folded over ctBits in the same pass.
func completionRowMin(in *sched.Instance, task int, ready []float64, dst []float64) float64 {
	mn := ctBits(math.Inf(1))
	for m := range dst {
		v := in.ETC().At(task, m) + ready[m]
		dst[m] = v
		mn = min(mn, ctBits(v))
	}
	return math.Float64frombits(mn)
}

// The paper's example parameters, the registry's "kpb" and "swa" and the
// immediate-mode simulator's rules of the same names: KPB's k, and SWA's
// thresholds (the paper's High, and a Low that reproduces its example
// traces; see SWA).
const (
	PaperKPercent             = 70
	PaperSWALow, PaperSWAHigh = 0.33, 0.49
)

// registry is the one table of heuristics constructible by name; Registry,
// Names and ByName all read it. Stochastic heuristics receive the seed.
var registry = map[string]func(seed uint64) Heuristic{
	"olb":       fixed(OLB{}),
	"met":       fixed(MET{}),
	"mct":       fixed(MCT{}),
	"min-min":   fixed(MinMin{}),
	"max-min":   fixed(MaxMin{}),
	"duplex":    fixed(Duplex{}),
	"sufferage": fixed(Sufferage{}),
	"kpb":       fixed(KPercentBest{Percent: PaperKPercent}),
	"swa":       fixed(SWA{Low: PaperSWALow, High: PaperSWAHigh}),
	"genitor":   func(seed uint64) Heuristic { return NewGenitor(GenitorConfig{}, seed) },
	"ga":        func(seed uint64) Heuristic { return NewGeneticAlgorithm(GAConfig{}, seed) },
	"sa":        func(seed uint64) Heuristic { return NewSimulatedAnnealing(SAConfig{}, seed) },
	"tabu":      func(seed uint64) Heuristic { return NewTabuSearch(TabuConfig{}, seed) },
}

// fixed is the constructor of a seedless heuristic value, boxed once so a
// lookup costs no allocation; sharing it is safe, as a value held in an
// interface cannot be mutated through it.
func fixed(h Heuristic) func(uint64) Heuristic {
	return func(uint64) Heuristic { return h }
}

// sortedNames is the registry's names in sorted order, computed once.
var sortedNames = func() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}()

// Registry lists every heuristic constructible by name, for the CLIs and
// sweep harness. Stochastic heuristics (Genitor) receive the given seed.
func Registry(seed uint64) map[string]func() Heuristic {
	reg := make(map[string]func() Heuristic, len(registry))
	for name, f := range registry {
		reg[name] = func() Heuristic { return f(seed) }
	}
	return reg
}

// Names returns the registry's heuristic names in sorted order.
func Names() []string { return append([]string(nil), sortedNames...) }

// Known checks name against the registry without constructing anything: it
// returns nil for a registered name and ByName's error for any other.
func Known(name string) error {
	if _, ok := registry[name]; !ok {
		return fmt.Errorf("heuristics: unknown heuristic %q (available: %v)", name, sortedNames)
	}
	return nil
}

// ByName constructs the named heuristic or returns an error listing the
// available names.
func ByName(name string, seed uint64) (Heuristic, error) {
	if err := Known(name); err != nil {
		return nil, err
	}
	return registry[name](seed), nil
}

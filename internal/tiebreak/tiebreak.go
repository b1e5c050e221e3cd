// Package tiebreak defines the tie-breaking policies that the paper shows to
// be decisive for the iterative technique: with deterministic tie-breaking
// Min-Min, MCT and MET provably never change across iterations, while random
// tie-breaking lets all of them increase makespan.
//
// Heuristics present every choice to a Policy, the ones with a single
// candidate included; a tie is a choice among several equally good
// candidates (machines, or task-machine pairs). A single-candidate choice
// returns that candidate and leaves the policy's state unchanged, so only
// the ties decide what a policy does.
package tiebreak

import (
	"fmt"

	"repro/internal/rng"
)

// Policy chooses one index from a non-empty slice of tied candidates.
// Candidates are always presented in ascending canonical order (lowest task
// or machine index first), so deterministic policies are well defined.
//
// Contract: Choose with one candidate returns it and leaves the policy's
// state unchanged — a Random stream draws nothing, a Scripted script does
// not advance, a Recorder logs nothing. Interleaving single-candidate calls
// therefore never changes a later pick, which is what lets the iterative
// engine skip runs whose every choice had one candidate. Counting is the one
// wrapper that counts them; the engine wraps a run in it to see its ties.
type Policy interface {
	// Choose returns one element of candidates. It panics if candidates is
	// empty: heuristics guarantee at least one candidate.
	Choose(candidates []int) int
	// Name identifies the policy in experiment records.
	Name() string
}

// First breaks ties deterministically by choosing the lowest-index
// candidate, the paper's "oldest task / lowest reference number" convention.
type First struct{}

// Choose returns the first (lowest) candidate.
func (First) Choose(candidates []int) int {
	mustNonEmpty(candidates)
	return candidates[0]
}

// Name implements Policy.
func (First) Name() string { return "deterministic-first" }

// Last breaks ties deterministically by choosing the highest-index
// candidate. It exists to demonstrate that *any* fixed deterministic rule
// satisfies the paper's theorems, not just lowest-index.
type Last struct{}

// Choose returns the last (highest) candidate.
func (Last) Choose(candidates []int) int {
	mustNonEmpty(candidates)
	return candidates[len(candidates)-1]
}

// Name implements Policy.
func (Last) Name() string { return "deterministic-last" }

// Random breaks ties uniformly at random from a deterministic seeded stream.
// It is stateful: each Choose consumes randomness.
type Random struct {
	src *rng.Source
}

// NewRandom returns a Random policy drawing from src.
func NewRandom(src *rng.Source) *Random { return &Random{src: src} }

// Choose returns a uniformly random candidate.
func (r *Random) Choose(candidates []int) int {
	mustNonEmpty(candidates)
	if len(candidates) == 1 {
		return candidates[0]
	}
	return candidates[r.src.Intn(len(candidates))]
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Scripted replays a fixed sequence of choices: the k-th tie with more than
// one candidate selects the candidate whose position is Script[k] (modulo
// the number of candidates). Once the script is exhausted it falls back to
// First. Scripted policies let experiments force the exact alternate tie
// path a paper example describes, and let the counterexample searcher
// enumerate all tie paths systematically.
type Scripted struct {
	Script []int
	step   int
}

// Choose implements Policy.
func (s *Scripted) Choose(candidates []int) int {
	mustNonEmpty(candidates)
	if len(candidates) == 1 {
		return candidates[0]
	}
	if s.step >= len(s.Script) {
		return candidates[0]
	}
	pick := s.Script[s.step] % len(candidates)
	s.step++
	return candidates[pick]
}

// Name implements Policy.
func (s *Scripted) Name() string { return fmt.Sprintf("scripted%v", s.Script) }

// Reset rewinds the script so the policy can be reused across iterations.
func (s *Scripted) Reset() { s.step = 0 }

// Recorder wraps a Policy and records every genuine tie (more than one
// candidate) it resolves, so callers can discover where ties occurred.
type Recorder struct {
	Inner Policy
	// Ties[k] is the candidate set of the k-th genuine tie, and Picks[k]
	// the index chosen.
	Ties  [][]int
	Picks []int
}

// NewRecorder wraps inner.
func NewRecorder(inner Policy) *Recorder { return &Recorder{Inner: inner} }

// Choose implements Policy, recording genuine ties.
func (r *Recorder) Choose(candidates []int) int {
	mustNonEmpty(candidates)
	pick := r.Inner.Choose(candidates)
	if len(candidates) > 1 {
		cs := make([]int, len(candidates))
		copy(cs, candidates)
		r.Ties = append(r.Ties, cs)
		r.Picks = append(r.Picks, pick)
	}
	return pick
}

// Name implements Policy.
func (r *Recorder) Name() string { return "recorded(" + r.Inner.Name() + ")" }

// TieCount returns the number of genuine ties resolved so far.
func (r *Recorder) TieCount() int { return len(r.Ties) }

// Counting wraps a Policy and counts invocations, genuine ties and total
// candidates examined, without retaining the candidate sets (Recorder keeps
// them). It is the one policy whose state single-candidate calls change
// (see Policy), and the wrapper the engine installs when an observer is
// attached or a restricting heuristic runs: delegation is exact, so wrapping
// never changes which candidate is chosen, and Name reports the inner
// policy's name so instrumented runs are indistinguishable in every record.
type Counting struct {
	Inner Policy
	// Invocations counts Choose calls, Ties those with more than one
	// candidate, and Candidates the total candidates across all calls.
	Invocations, Ties, Candidates int64
}

// Choose implements Policy, counting before delegating.
func (c *Counting) Choose(candidates []int) int {
	c.Invocations++
	c.Candidates += int64(len(candidates))
	if len(candidates) > 1 {
		c.Ties++
	}
	return c.Inner.Choose(candidates)
}

// Name implements Policy, reporting the inner policy's name.
func (c *Counting) Name() string { return c.Inner.Name() }

func mustNonEmpty(candidates []int) {
	if len(candidates) == 0 {
		panic("tiebreak: Choose called with no candidates")
	}
}

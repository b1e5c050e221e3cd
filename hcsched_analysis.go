package hcsched

import (
	"repro/internal/bounds"
	"repro/internal/opt"
	"repro/internal/robust"
)

// This file exposes the analysis tooling: makespan lower bounds, the exact
// solver, and the robustness metrics.

type (
	// ExactResult is the outcome of an exact makespan solve.
	ExactResult = opt.Result
	// Robustness holds per-machine robustness radii at a tolerance.
	Robustness = robust.Radius
)

// LowerBound returns the strongest available makespan lower bound for the
// instance (per-task, averaging and LP-relaxation bounds combined). No valid
// schedule can beat it; use it to compute quality ratios for heuristics.
func LowerBound(in *Instance) float64 { return bounds.Best(in) }

// SolveExact finds a makespan-optimal mapping by branch and bound. It is
// intended for small instances (at most opt.MaxTasks tasks); larger
// instances return an error, and exhausting the node budget (opt.MaxNodes)
// returns the best incumbent with Optimal=false.
func SolveExact(in *Instance) (*ExactResult, error) { return opt.Solve(in) }

// RobustnessRadius computes the analytic robustness radii of a schedule at
// tolerance tau: how much Euclidean ETC perturbation each machine tolerates
// before exceeding tau, and the system minimum.
func RobustnessRadius(s *Schedule, tau float64) (*Robustness, error) {
	return robust.Compute(s, tau)
}

// RobustnessTau returns the conventional tolerance tau = factor x makespan.
func RobustnessTau(s *Schedule, factor float64) float64 {
	return robust.TauFactor(s, factor)
}

// RobustnessMonteCarlo estimates the probability that the schedule's
// makespan stays within tau under gamma ETC noise with the given coefficient
// of variation.
func RobustnessMonteCarlo(s *Schedule, tau, cv float64, trials int, seed uint64) (float64, error) {
	return robust.MonteCarlo(s, tau, cv, trials, seed)
}

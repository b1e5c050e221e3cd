package hcsched

import (
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/etc"
	"repro/internal/rng"
	"repro/internal/sched"
)

// This file exposes the dynamic-arrival environment (the setting the
// paper's SWA, K-Percent Best and Sufferage heuristics were designed for)
// and the iterative-engine ablation options.

// Dynamic-environment types.
type (
	// DynamicWorkload pairs an ETC matrix with per-task arrival times.
	DynamicWorkload = dynamic.Workload
	// DynamicResult is the outcome of a dynamic simulation.
	DynamicResult = dynamic.Result
	// ImmediateRule selects the on-arrival mapping rule.
	ImmediateRule = dynamic.ImmediateRule
	// ImmediateConfig configures an immediate-mode simulation. Its KPB and
	// SWA rules take the registry's parameters: k = 70, and thresholds
	// 0.33 and 0.49.
	ImmediateConfig = dynamic.ImmediateConfig
	// BatchConfig configures a batch-mode simulation.
	BatchConfig = dynamic.BatchConfig
	// IterateOptions tunes the iterative technique for ablation studies.
	IterateOptions = core.Options
	// FreezeRule selects which machine the technique freezes per iteration.
	FreezeRule = core.FreezeRule
)

// Immediate-mode rules.
const (
	ImmediateMCT = dynamic.ImmediateMCT
	ImmediateMET = dynamic.ImmediateMET
	ImmediateOLB = dynamic.ImmediateOLB
	ImmediateKPB = dynamic.ImmediateKPB
	ImmediateSWA = dynamic.ImmediateSWA
)

// Freeze rules.
const (
	FreezeMakespan      = core.FreezeMakespan
	FreezeMinCompletion = core.FreezeMinCompletion
)

// GeneratePoissonWorkload builds a dynamic workload whose tasks arrive as a
// Poisson process with the given mean inter-arrival time.
func GeneratePoissonWorkload(class WorkloadClass, tasks, machines int, meanInterarrival float64, seed uint64) (DynamicWorkload, error) {
	return dynamic.GeneratePoissonWorkload(etc.Class(class), tasks, machines, meanInterarrival, rng.New(seed))
}

// SimulateImmediate maps each task at its arrival instant with the
// configured rule.
func SimulateImmediate(w DynamicWorkload, cfg ImmediateConfig) (*DynamicResult, error) {
	return dynamic.SimulateImmediate(w, cfg)
}

// SimulateBatch maps arrived tasks in batches at fixed mapping intervals
// with the configured batch heuristic.
func SimulateBatch(w DynamicWorkload, cfg BatchConfig) (*DynamicResult, error) {
	return dynamic.SimulateBatch(w, cfg)
}

// IterateWithOptions is Iterate with ablation options: cap the number of
// iterations or change the freeze rule.
func IterateWithOptions(in *sched.Instance, h Heuristic, policy PolicyFunc, opts IterateOptions) (*Trace, error) {
	return core.IterateOpts(in, h, policy, opts)
}

// Package hcsched is the public API of this repository: a library for
// heterogeneous-computing resource allocation implementing the iterative
// technique of Briceño, Oltikar, Siegel and Maciejewski, "Study of an
// Iterative Technique to Minimize Completion Times of Non-Makespan
// Machines" (IPPS/HCW 2007), together with the mapping heuristics it
// studies (MET, MCT, Min-Min, Max-Min, Duplex, OLB, Sufferage, K-Percent
// Best, the Switching Algorithm, and Genitor) and the synthetic ETC
// workload generators of the surrounding literature.
//
// A minimal session:
//
//	m := hcsched.MustETC([][]float64{
//		{4, 9, 9},
//		{9, 2, 2},
//		{9, 9, 3},
//	})
//	in, _ := hcsched.NewInstance(m, nil)
//	h, _ := hcsched.NewHeuristic("min-min", 0)
//	trace, _ := hcsched.Iterate(in, h, hcsched.DeterministicTies())
//	fmt.Println(trace.FinalMakespan())
//
// The package is a thin facade over the internal packages; every type it
// exposes is an alias, so values flow freely between the facade and the
// richer internal APIs used by the examples and experiments.
package hcsched

import (
	"io"

	"repro/internal/core"
	"repro/internal/counterexample"
	"repro/internal/etc"
	"repro/internal/experiments"
	"repro/internal/gantt"
	"repro/internal/heuristics"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tiebreak"
)

// Core model types.
type (
	// ETCMatrix is the estimated-time-to-compute matrix: one row per task,
	// one column per machine.
	ETCMatrix = etc.Matrix
	// Instance is an immutable scheduling problem: an ETC matrix plus
	// initial machine ready times.
	Instance = sched.Instance
	// Mapping assigns every task to a machine.
	Mapping = sched.Mapping
	// Schedule is a mapping evaluated against an instance.
	Schedule = sched.Schedule
	// Heuristic maps all tasks of an instance onto its machines.
	Heuristic = heuristics.Heuristic
	// Scratch is a heuristic run's working storage (Heuristic.MapInto). A
	// heuristic implemented outside this module keeps its own buffers and
	// leaves it untouched.
	Scratch = heuristics.Scratch
	// TieBreaker resolves choices among equally good candidates. Choose
	// with one candidate must return it and leave the policy's state
	// unchanged (see tiebreak.Policy).
	TieBreaker = tiebreak.Policy
	// PolicyFunc supplies the tie-breaking policy per iteration.
	PolicyFunc = core.PolicyFunc
	// Trace records a full run of the iterative technique.
	Trace = core.Trace
	// Iteration is one heuristic run within the technique.
	Iteration = core.Iteration
	// MachineOutcome classifies a machine's final completion time against
	// the original mapping.
	MachineOutcome = core.MachineOutcome
	// WorkloadClass selects one of the canonical ETC heterogeneity classes.
	WorkloadClass = etc.Class
	// StudyConfig configures one Monte Carlo cell.
	StudyConfig = sim.Config
	// StudyResult aggregates one Monte Carlo cell.
	StudyResult = sim.Result
	// Experiment is one paper artifact reproduction.
	Experiment = experiments.Experiment
	// GanttOptions controls chart rendering.
	GanttOptions = gantt.Options
)

// Observability types (see internal/obs): the engine emits typed events to
// an Observer and aggregates into a Metrics registry; wall-clock fields are
// observational only and never influence scheduling.
type (
	// Observer receives engine events during IterateObserved.
	Observer = obs.Observer
	// Event is one typed engine observation.
	Event = obs.Event
	// IterationStartEvent opens each heuristic run.
	IterationStartEvent = obs.IterationStart
	// HeuristicDoneEvent closes each heuristic run with tie counters.
	HeuristicDoneEvent = obs.HeuristicDone
	// MachineFrozenEvent records each machine removal.
	MachineFrozenEvent = obs.MachineFrozen
	// TraceDoneEvent closes the run.
	TraceDoneEvent = obs.TraceDone
	// Metrics is a registry of named counters, gauges and histograms.
	Metrics = obs.Metrics
	// MetricsSnapshot is a deterministic point-in-time copy of a Metrics.
	MetricsSnapshot = obs.Snapshot
	// TraceWriter streams events as JSONL (one JSON object per line).
	TraceWriter = obs.JSONL
	// EventCollector buffers events in memory, for tests and inspection.
	EventCollector = obs.Collector
	// MultiObserver fans events out to several observers in order.
	MultiObserver = obs.Multi
)

// Machine outcome values.
const (
	Unchanged = core.Unchanged
	Improved  = core.Improved
	Worsened  = core.Worsened
)

// NewETC validates and builds an ETC matrix (values[task][machine]).
func NewETC(values [][]float64) (*ETCMatrix, error) { return etc.New(values) }

// MustETC is NewETC but panics on error; for literals and tests.
func MustETC(values [][]float64) *ETCMatrix { return etc.MustNew(values) }

// NewInstance pairs a matrix with initial ready times (nil means all zero).
func NewInstance(m *ETCMatrix, ready []float64) (*Instance, error) {
	return sched.NewInstance(m, ready)
}

// Evaluate computes the schedule of a mapping on an instance.
func Evaluate(in *Instance, mp Mapping) (*Schedule, error) { return sched.Evaluate(in, mp) }

// Heuristics returns the available heuristic names.
func Heuristics() []string { return heuristics.Names() }

// NewHeuristic builds a heuristic by registry name ("met", "mct", "min-min",
// "max-min", "duplex", "olb", "sufferage", "kpb", "swa", "genitor"). The
// seed drives stochastic heuristics (Genitor).
func NewHeuristic(name string, seed uint64) (Heuristic, error) {
	return heuristics.ByName(name, seed)
}

// Seeded wraps a heuristic with the paper's concluding proposal: keep the
// previous iteration's mapping whenever the heuristic fails to beat it, so
// the iterative technique can never increase makespan.
func Seeded(h Heuristic) Heuristic { return heuristics.Seeded{Inner: h} }

// DeterministicTies breaks every tie toward the lowest index — the
// convention under which the paper proves Min-Min, MCT and MET invariant.
func DeterministicTies() PolicyFunc { return core.Deterministic() }

// RandomTies breaks ties uniformly at random from a deterministic seeded
// stream.
func RandomTies(seed uint64) PolicyFunc {
	return core.FixedPolicy(tiebreak.NewRandom(rng.New(seed)))
}

// Iterate runs the paper's iterative technique: repeatedly map, freeze the
// makespan machine with its tasks, reset ready times, and re-map, until one
// machine remains.
func Iterate(in *Instance, h Heuristic, policy PolicyFunc) (*Trace, error) {
	return core.Iterate(in, h, policy)
}

// IterateObserved is Iterate with an attached Observer receiving the
// engine's typed events. A nil observer is exactly Iterate: no events are
// constructed and the hot path is untouched. Observation never perturbs the
// result — the returned Trace is identical either way.
func IterateObserved(in *Instance, h Heuristic, policy PolicyFunc, o Observer) (*Trace, error) {
	return core.IterateOpts(in, h, policy, core.Options{Observer: o})
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewTraceWriter returns an Observer streaming every event to w as JSONL.
// Check its Err method after the run for latched write errors.
func NewTraceWriter(w io.Writer) *TraceWriter { return obs.NewJSONL(w) }

// MetricsObserver returns an Observer folding engine events into m under
// the "engine." metric namespace.
func MetricsObserver(m *Metrics) Observer { return obs.NewMetricsObserver(m) }

// GenerateETC builds a random workload in the given class (the canonical
// range-based method) with the given shape, deterministically from seed.
func GenerateETC(class WorkloadClass, tasks, machines int, seed uint64) (*ETCMatrix, error) {
	return etc.GenerateClass(class, tasks, machines, rng.New(seed))
}

// WorkloadClasses returns the twelve canonical heterogeneity classes.
func WorkloadClasses() []WorkloadClass { return etc.AllClasses() }

// RenderGantt draws an ASCII Gantt chart of a schedule.
func RenderGantt(s *Schedule, opts GanttOptions) string { return gantt.Render(s, opts) }

// RunStudy executes one Monte Carlo cell measuring how the iterative
// technique behaves for a heuristic on random workloads.
func RunStudy(cfg StudyConfig) (StudyResult, error) { return sim.Run(cfg) }

// Experiments returns the registry reproducing every table and figure of
// the paper.
func Experiments() []Experiment { return experiments.All() }

// FindCounterexample searches random small-integer workloads for an
// instance on which the iterative technique makes the named heuristic's
// makespan worse. deterministicOnly restricts the search to deterministic
// tie-breaking (possible for SWA, KPB and Sufferage; provably impossible
// for Min-Min, MCT and MET). It returns the matrix, the number of
// candidates examined, and whether the search succeeded within attempts.
// An unknown heuristic name returns (nil, 0, false) without searching; use
// Heuristics to list the valid names.
func FindCounterexample(name string, deterministicOnly bool, tasks, machines int, attempts int64, seed uint64) (*ETCMatrix, int64, bool) {
	if _, err := heuristics.ByName(name, seed); err != nil {
		return nil, 0, false
	}
	target := counterexample.Target{
		Heuristic: func() heuristics.Heuristic {
			h, err := heuristics.ByName(name, seed)
			if err != nil {
				panic(err) // unreachable: name validated above
			}
			return h
		},
		DeterministicOnly: deterministicOnly,
	}
	gen := counterexample.GridGenerator(tasks, machines, counterexample.IntGrid(6))
	res, ok := counterexample.Search(target, gen, attempts, seed)
	if !ok {
		return nil, attempts, false
	}
	return res.Matrix, res.Attempts, true
}

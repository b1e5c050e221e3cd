package hcsched

import (
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Hardening & chaos layer (see internal/chaos and cmd/schedchaos): the
// serving path's failure story made machine-checkable. Every non-2xx
// response carries a structured error envelope with a documented code;
// worker panics are isolated into structured 500s; and seeded chaos
// scenarios replay fault storms against an in-process stack, asserting that
// every response is either a documented error or byte-identical to its
// fault-free golden and that the service's metrics, queue, goroutines and
// circuit breaker all return to a clean steady state. One scenario type
// covers every topology — a single instance, a gateway over several
// backends (kills, rejoins, split-routing storms), a kill/restart over the
// disk tier, and a sick-disk arc (I/O-error storm or ENOSPC) over a
// fault-injecting filesystem — and one RunChaos replays them all.
type (
	// ErrorResponse is the uniform JSON error envelope of every non-2xx
	// scheduling response: {"error":{"code":...,"message":...,"fields":...}}.
	ErrorResponse = serve.ErrorResponse
	// ErrorDetail is the envelope payload: a documented code, a
	// deterministic message and, for validation failures, field errors.
	ErrorDetail = serve.ErrorDetail
	// FieldError locates one validation failure, e.g. path "etc[2][0]".
	FieldError = serve.FieldError
	// ChaosScenario is a seeded failure schedule; which of its fields are
	// set selects the topology it runs against (ChaosScenario.Topology).
	ChaosScenario = chaos.Scenario
	// ChaosPhase is one request-counted segment of a single-instance or
	// cluster scenario timeline: fault regime, batch and panic cadence,
	// backend kills and revives.
	ChaosPhase = chaos.Phase
	// ChaosReport is a scenario run's deterministic verdict: same seed,
	// same bytes.
	ChaosReport = chaos.Report
	// ChaosPhaseReport is one phase's outcome tally inside a ChaosReport.
	ChaosPhaseReport = chaos.PhaseReport
	// ChaosInvariant is one machine-checked invariant's verdict.
	ChaosInvariant = chaos.InvariantResult
	// PanicRecoveredEvent records one isolated worker panic in an observer.
	PanicRecoveredEvent = obs.PanicRecovered
)

// Error-envelope codes returned by the serving layer.
const (
	ErrCodeBadRequest       = serve.CodeBadRequest
	ErrCodeMethodNotAllowed = serve.CodeMethodNotAllowed
	ErrCodePayloadTooLarge  = serve.CodePayloadTooLarge
	ErrCodeValidation       = serve.CodeValidationFailed
	ErrCodeOverloaded       = serve.CodeOverloaded
	ErrCodeInternal         = serve.CodeInternal
	ErrCodePanic            = serve.CodePanic
	ErrCodeDraining         = serve.CodeDraining
	ErrCodeDeadline         = serve.CodeDeadlineExceeded
)

// ChaosPanicSeed is the sentinel request seed chaos scenarios use to
// schedule deliberate worker panics; scenario validation refuses it as a
// workload seed.
const ChaosPanicSeed = chaos.PanicSeed

// RunChaos replays one scenario against a fresh in-process stack of its
// topology and returns its machine-checked verdict; ChaosReport.Err names
// the first failed invariant. The report is byte-identical across runs of
// the same scenario and seed.
func RunChaos(sc ChaosScenario) (*ChaosReport, error) { return chaos.Run(sc) }

// BuiltinChaosScenarios returns every stock scenario, of every topology,
// with pinned seeds.
func BuiltinChaosScenarios() []ChaosScenario { return chaos.Builtin() }

// ChaosScenarioByName finds a builtin scenario by name.
func ChaosScenarioByName(name string) (ChaosScenario, error) { return chaos.ByName(name) }

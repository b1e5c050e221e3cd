package hcsched

import (
	"repro/internal/obs"
	"repro/internal/serve"
)

// Serving layer (see internal/serve and cmd/schedd): the library exposed as
// a deterministic JSON-over-HTTP service. Identical requests produce
// byte-identical response bodies whether computed or served from the result
// cache; wall-clock appears only in observability fields.
type (
	// Server is the scheduling service core: bounded request queue with
	// load shedding, worker pool, LRU result cache, graceful drain.
	Server = serve.Server
	// ServeOptions configures a Server; the zero value uses sane defaults.
	// The admission caps are not options: a body over 1 MiB, a matrix
	// over 262 144 cells, a memory estimate over 64 MiB or a batch over
	// 256 items is refused with 413 (serve.MaxBodyBytes, MaxCells,
	// MaxEstimatedBytes, MaxBatchItems).
	ServeOptions = serve.Options
	// ScheduleRequest is the wire request of /v1/map and /v1/iterate.
	ScheduleRequest = serve.Request
	// MapResponse is the wire response of /v1/map.
	MapResponse = serve.MapResponse
	// IterateResponse is the wire response of /v1/iterate.
	IterateResponse = serve.IterateResponse
	// IterationResult is one iteration inside an IterateResponse.
	IterationResult = serve.IterationResult
	// BatchScheduleRequest is the wire request of /v1/batch: many map or
	// iterate items answered in one HTTP exchange, results in input order.
	BatchScheduleRequest = serve.BatchRequest
	// BatchScheduleItem is one entry of a BatchScheduleRequest: a
	// ScheduleRequest plus the "map" or "iterate" endpoint serving it.
	BatchScheduleItem = serve.BatchItem
	// BatchScheduleResponse is the wire response of /v1/batch.
	BatchScheduleResponse = serve.BatchResponse
	// BatchScheduleItemResult is one per-item outcome in a
	// BatchScheduleResponse; its Body is byte-identical to the
	// corresponding singleton response minus the trailing newline.
	BatchScheduleItemResult = serve.BatchItemResult
	// RequestDoneEvent records one served request, with observational
	// latency, in an access log or metrics observer.
	RequestDoneEvent = obs.RequestDone
)

// NewServer starts the worker pool and returns a ready Server; call its
// Drain method to shut down gracefully. Mount its Handler on any
// *http.Server.
func NewServer(opts ServeOptions) *Server { return serve.NewServer(opts) }

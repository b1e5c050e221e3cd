//go:build race

package serve

// raceDetectorEnabled lets the decoder's allocation guard skip under -race:
// the race runtime makes sync.Pool drop a random share of Puts, so pooled
// scratch is re-allocated nondeterministically. The plain `go test` leg
// still enforces the budget.
const raceDetectorEnabled = true

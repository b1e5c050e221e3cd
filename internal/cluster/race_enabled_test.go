//go:build race

package cluster

// raceDetectorEnabled lets the gateway's allocation guard skip under
// -race: the race runtime makes sync.Pool drop a random share of Puts, so
// pooled transport and scratch buffers are re-allocated
// nondeterministically. The plain `go test` leg still enforces the bound.
const raceDetectorEnabled = true

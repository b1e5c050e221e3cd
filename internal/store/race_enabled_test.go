//go:build race

package store

// raceDetectorEnabled relaxes the allocation guards under -race: the race
// runtime makes sync.Pool drop a random share of Puts, so pooled scratch is
// re-allocated nondeterministically. The plain `go test` leg still enforces
// them.
const raceDetectorEnabled = true

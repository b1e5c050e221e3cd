//go:build !race

package serve

const raceDetectorEnabled = false

//go:build !race

package cluster

const raceDetectorEnabled = false

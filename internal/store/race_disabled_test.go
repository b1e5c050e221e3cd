//go:build !race

package store

const raceDetectorEnabled = false

//go:build !race

package search

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false

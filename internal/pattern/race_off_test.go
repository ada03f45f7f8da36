//go:build !race

package pattern_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false

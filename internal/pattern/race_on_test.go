//go:build race

package pattern_test

const raceEnabled = true

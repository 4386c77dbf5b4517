//go:build !race

package stream

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false

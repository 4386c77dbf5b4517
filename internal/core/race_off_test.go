//go:build !race

package core

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are meaningless under its instrumentation.
const raceEnabled = false

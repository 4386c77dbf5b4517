//go:build race

package stream

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are meaningless under its instrumentation.
const raceEnabled = true

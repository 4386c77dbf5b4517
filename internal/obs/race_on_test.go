//go:build race

package obs

// raceEnabled reports whether the race detector instruments this build;
// allocation counts and timings are meaningless under its instrumentation.
const raceEnabled = true

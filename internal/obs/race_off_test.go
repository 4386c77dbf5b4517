//go:build !race

package obs

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false

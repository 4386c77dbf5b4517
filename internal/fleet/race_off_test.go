//go:build !race

package fleet_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false

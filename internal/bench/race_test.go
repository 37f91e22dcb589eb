//go:build race

package bench

// raceEnabled reports that the race detector is instrumenting this build.
const raceEnabled = true

//go:build !race

package bench

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false

//go:build !race

package serve

// raceEnabled reports whether the race detector is active; allocation
// guards skip themselves under it.
const raceEnabled = false

//go:build race

package serve

// raceEnabled reports whether the race detector is active; allocation
// guards skip themselves under it (sync.Pool drops a share of Puts on
// purpose there, so a warm pool still allocates).
const raceEnabled = true

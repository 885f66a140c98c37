//go:build race

package window

// raceEnabled reports a race-detector build, where sync.Pool drops
// entries at random and allocation counts mean nothing.
const raceEnabled = true

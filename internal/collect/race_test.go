//go:build race

package collect

// raceEnabled reports a race-detector build, where sync.Pool drops
// entries at random and allocation counts mean nothing.
const raceEnabled = true

package collect

// SetDiffParts makes DiffSnapshots cut every stage into n ranges, so a test
// can place range cuts inside stages far smaller than the derived count
// would ever split. The returned func restores the derived count. Tests
// that call it must not run in parallel with other diffs.
func SetDiffParts(n int) (restore func()) {
	derived := diffParts
	diffParts = func(int) int { return n }
	return func() { diffParts = derived }
}

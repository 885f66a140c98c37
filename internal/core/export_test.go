package core

// SetSplitParts makes MergeSplit and ResetSplit cut into n root ranges (as
// many as the sketches' 64-root units allow), so a test can place range
// cuts inside sketches far smaller than the derived count would ever
// split. The returned func restores the derived count. Tests that call it
// must not run in parallel with other split passes.
func SetSplitParts(n int) (restore func()) {
	derived := splitParts
	splitParts = func(int) int { return n }
	return func() { splitParts = derived }
}

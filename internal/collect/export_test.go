package collect

import "io"

// SetDiffParts makes DiffSnapshots cut every stage into n ranges, so a test
// can place range cuts inside stages far smaller than the derived count
// would ever split. The returned func restores the derived count. Tests
// that call it must not run in parallel with other diffs.
func SetDiffParts(n int) (restore func()) {
	derived := diffParts
	diffParts = func(int) int { return n }
	return func() { diffParts = derived }
}

// readFrame receives one length-prefixed frame into a fresh buffer.
func readFrame(r io.Reader) ([]byte, error) { return readFrameInto(r, nil) }

// writeFrame sends one length-prefixed frame, copying the payload behind
// its prefix.
func writeFrame(w io.Writer, payload []byte) error {
	return sendFrame(w, append(frameStart(make([]byte, 0, 4+len(payload))), payload...))
}

package sketch

import "unsafe"

// Raw byte views over typed counter storage: they expose a lane's
// backing store so merges, equality prescreens, stage read-outs and
// snapshot diffs can process eight bytes per load. The views alias their
// argument — they are reinterpretations, not copies — and are in native
// byte order: pair them with binary.NativeEndian loads/stores so a 64-bit
// word holds the lane's counters at their in-memory field positions on
// every platform. Callers must not grow the view or retain it past the
// lifetime of the slice it aliases.

// BytesU16 returns s's backing array as raw bytes, aliasing s.
func BytesU16(s []uint16) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*2)
}

// BytesU32 returns s's backing array as raw bytes, aliasing s.
func BytesU32(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

package sketch

// This file is the widening/narrowing adapter boundary between the typed
// counter lanes of internal/core and the consumers that speak []uint32:
// StageValues/SetStageValues and, through them, the differential
// harness's scalar oracles. The data plane stores level-1 counters in one
// byte and level-2 counters in two (the hardware layout of the paper's
// §8: counters saturate at 254 and 65534, so the native width is the
// whole contract); the uniform 32-bit view widens on the way out and
// narrows — with an explicit range check — on the way back in. The
// collection plane does neither: it reads and writes stages at their lane
// width (core.Sketch.AppendStageBytes/SetStageBytes).

// WidenU8 copies src into dst value-for-value. dst must be at least as
// long as src; the filled prefix is returned.
func WidenU8(dst []uint32, src []uint8) []uint32 {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = uint32(v)
	}
	return dst
}

// WidenU16 copies src into dst value-for-value. dst must be at least as
// long as src; the filled prefix is returned.
func WidenU16(dst []uint32, src []uint16) []uint32 {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = uint32(v)
	}
	return dst
}

// NarrowU8 copies src into dst, which must be the same length. It returns
// the index of the first value that does not fit in a byte lane, or -1
// when every value fits (dst is fully written only in that case).
func NarrowU8(dst []uint8, src []uint32) int {
	for i, v := range src {
		if v > 0xff {
			return i
		}
	}
	for i, v := range src {
		dst[i] = uint8(v)
	}
	return -1
}

// NarrowU16 copies src into dst, which must be the same length. It returns
// the index of the first value that does not fit in a two-byte lane, or -1
// when every value fits (dst is fully written only in that case).
func NarrowU16(dst []uint16, src []uint32) int {
	for i, v := range src {
		if v > 0xffff {
			return i
		}
	}
	for i, v := range src {
		dst[i] = uint16(v)
	}
	return -1
}

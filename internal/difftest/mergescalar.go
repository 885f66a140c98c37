package difftest

import "github.com/fcmsketch/fcm/internal/core"

// MergeScalar folds src into dst one register at a time: the paper's §5
// exact merge, written against core's exported API only (Compatible,
// StageMax, and the lane-width stage accessors behind this package's
// StageValues and SetStageValues). It shares no code
// with the word-wide kernel behind core.Sketch.Merge, so it serves as that
// kernel's independent oracle: both must leave bit-identical registers.
//
// Per node, bottom-up: the combined count is the two absorbed counts plus
// the carry from merged children. A node that either source marked, or
// whose combined count exceeds the stage capacity θ_l, is marked and
// carries only the new excess to its parent; the root saturates at θ_l.
// The mark is θ_l+1 under both the marker and the flag-bit encoding.
func MergeScalar(dst, src *core.Sketch) error {
	if err := dst.Compatible(src); err != nil {
		return err
	}
	last := dst.Depth() - 1
	for t := 0; t < dst.NumTrees(); t++ {
		var carry []uint64 // nil at the leaves: no child stage
		for l := 0; l <= last; l++ {
			max := dst.StageMax(l)
			mark := uint32(max + 1)
			a, b := StageValues(dst, t, l), StageValues(src, t, l)
			out := make([]uint32, len(a))
			var next []uint64
			if l < last {
				next = make([]uint64, len(a)/dst.K())
			}
			for i := range a {
				var c uint64
				if carry != nil {
					c = carry[i]
				}
				if l == last {
					out[i] = uint32(min(c+uint64(a[i])+uint64(b[i]), max))
					continue
				}
				for _, v := range [2]uint32{a[i], b[i]} {
					if v == mark {
						c += max
					} else {
						c += uint64(v)
					}
				}
				switch {
				case c > max:
					out[i] = mark
					next[i/dst.K()] += c - max
				case a[i] == mark || b[i] == mark:
					out[i] = mark
				default:
					out[i] = uint32(c)
				}
			}
			if err := SetStageValues(dst, t, l, out); err != nil {
				return err
			}
			carry = next
		}
	}
	return nil
}

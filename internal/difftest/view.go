package difftest

import (
	"encoding/binary"
	"fmt"

	"github.com/fcmsketch/fcm/internal/core"
)

// StageValues returns stage l of tree t of s at uniform 32-bit width —
// the register view the scalar oracles are written against. It reads the
// stage at its lane width through core's AppendStageBytes and widens it
// here, so the oracles share no register access code with what they
// check. The result is a fresh copy.
func StageValues(s *core.Sketch, t, l int) []uint32 {
	size := core.LaneBytes(s.StageWidth(l))
	raw := s.AppendStageBytes(nil, t, l)
	out := make([]uint32, len(raw)/size)
	for i := range out {
		switch size {
		case 1:
			out[i] = uint32(raw[i])
		case 2:
			out[i] = uint32(binary.LittleEndian.Uint16(raw[2*i:]))
		default:
			out[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
	}
	return out
}

// SetStageValues overwrites stage l of tree t of s from 32-bit values,
// narrowing each to the stage's lane width and writing the stage through
// core's SetStageBytes. The length must match, and a value that does not
// fit the lane is rejected with its index rather than truncated.
func SetStageValues(s *core.Sketch, t, l int, vals []uint32) error {
	size := core.LaneBytes(s.StageWidth(l))
	limit := uint64(1)<<(8*size) - 1
	raw := make([]byte, 0, len(vals)*size)
	for i, v := range vals {
		if uint64(v) > limit {
			return fmt.Errorf("difftest: stage %d/%d value %d at index %d exceeds its %d-byte lane", t, l, v, i, size)
		}
		switch size {
		case 1:
			raw = append(raw, uint8(v))
		case 2:
			raw = binary.LittleEndian.AppendUint16(raw, uint16(v))
		default:
			raw = binary.LittleEndian.AppendUint32(raw, v)
		}
	}
	return s.SetStageBytes(t, l, raw)
}

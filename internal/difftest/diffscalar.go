package difftest

import "github.com/fcmsketch/fcm/internal/core"

// RegisterChange is one register of a sketch that differs from a
// baseline: its tree, stage and index, and its new value.
type RegisterChange struct {
	Tree, Stage, Index int
	Value              uint32
}

// DiffScalar lists every register of cur that differs from base, in
// tree/stage/index order, comparing one register at a time over this
// package's register view StageValues. It shares no code with the
// word-wide scan behind collect.DiffSnapshots, so it serves as that
// scan's independent oracle. Both sketches must share a geometry.
func DiffScalar(base, cur *core.Sketch) []RegisterChange {
	var out []RegisterChange
	for t := 0; t < cur.NumTrees(); t++ {
		for l := 0; l < cur.Depth(); l++ {
			a, b := StageValues(base, t, l), StageValues(cur, t, l)
			for i := range b {
				if a[i] != b[i] {
					out = append(out, RegisterChange{Tree: t, Stage: l, Index: i, Value: b[i]})
				}
			}
		}
	}
	return out
}

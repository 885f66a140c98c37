package core

import (
	"bytes"
	"fmt"

	"github.com/fcmsketch/fcm/internal/sketch"
)

// EqualRegisters reports whether s and o share a geometry and counter
// encoding (marker vs flag bit) and hold bit-identical counter state in
// every stage of every tree. It is the equality the differential harness
// enforces between ingest paths: two sketches that EqualRegisters answer
// every query — count, cardinality, virtual-counter conversion —
// identically. Hash mode and seed are not compared: snapshots restored
// through the collect codec carry neither, so a restored sketch must still
// equal its source here (Compatible is the check that refuses them).
func (s *Sketch) EqualRegisters(o *Sketch) bool {
	return s.FirstRegisterDiff(o) == ""
}

// FirstRegisterDiff returns "" when EqualRegisters would hold, otherwise a
// human-readable description of the first difference found (geometry first,
// then registers in tree/stage/index order). Differential tests print it so
// a failure names the exact counter that diverged rather than two opaque
// dumps.
func (s *Sketch) FirstRegisterDiff(o *Sketch) string {
	if o == nil {
		return "other sketch is nil"
	}
	if s.k != o.k {
		return fmt.Sprintf("arity differs: K=%d vs %d", s.k, o.k)
	}
	if s.w1 != o.w1 {
		return fmt.Sprintf("leaf width differs: w1=%d vs %d", s.w1, o.w1)
	}
	if len(s.trees) != len(o.trees) {
		return fmt.Sprintf("tree count differs: %d vs %d", len(s.trees), len(o.trees))
	}
	if len(s.widths) != len(o.widths) {
		return fmt.Sprintf("depth differs: %d vs %d stages", len(s.widths), len(o.widths))
	}
	for l := range s.widths {
		if s.widths[l] != o.widths[l] {
			return fmt.Sprintf("stage %d width differs: %d vs %d bits", l, s.widths[l], o.widths[l])
		}
	}
	if s.trees[0].mark[0] != o.trees[0].mark[0] {
		return "counter encoding differs (flag-bit vs marker)"
	}
	for ti := range s.trees {
		a, b := s.trees[ti], o.trees[ti]
		if equalLanes(a, b) {
			// Byte-identical slabs: the per-register walk cannot find a
			// difference, so skip it. memeq compares a word at a time,
			// which is what makes EqualRegisters cheap enough for
			// per-poll convergence checks on equal fleets.
			continue
		}
		for l := range a.views {
			for i := 0; i < a.stageLen(l); i++ {
				if va, vb := a.load(l, i), b.load(l, i); va != vb {
					return fmt.Sprintf("tree %d stage %d index %d differs: %d vs %d",
						ti, l, i, va, vb)
				}
			}
		}
	}
	return ""
}

// equalLanes reports whether two same-geometry trees hold byte-identical
// counter slabs: same-geometry stages share a lane layout, so every
// register lives at the same offset of the same typed lane on both sides.
func equalLanes(a, b *tree) bool {
	return bytes.Equal(a.lane8, b.lane8) &&
		bytes.Equal(sketch.BytesU16(a.lane16), sketch.BytesU16(b.lane16)) &&
		bytes.Equal(sketch.BytesU32(a.lane32), sketch.BytesU32(b.lane32))
}

package difftest

import "github.com/fcmsketch/fcm/internal/core"

// The walks below are the register scans core.Sketch.Census replaced, one
// field at a time and one register at a time, written against core's
// exported API only (StageMax and this package's StageValues). They share
// no code with the census, so they serve as its independent oracle. The
// overflow marker is θ_l+1 under both the marker and the flag-bit
// encoding.

// StageLoadScalar returns, per stage, the count mass resident at that
// stage summed across trees: a node exactly at the marker below the root
// contributes its capacity θ_l, every other node its value.
func StageLoadScalar(s *core.Sketch) []uint64 {
	load := make([]uint64, s.Depth())
	last := s.Depth() - 1
	for t := 0; t < s.NumTrees(); t++ {
		for l := range load {
			max := s.StageMax(l)
			for _, v := range StageValues(s, t, l) {
				if uint64(v) == max+1 && l < last {
					load[l] += max
				} else {
					load[l] += uint64(v)
				}
			}
		}
	}
	return load
}

// MaxStageValueScalar returns the largest register value at stage l
// across all trees.
func MaxStageValueScalar(s *core.Sketch, l int) uint64 {
	top := uint64(0)
	for t := 0; t < s.NumTrees(); t++ {
		for _, v := range StageValues(s, t, l) {
			top = max(top, uint64(v))
		}
	}
	return top
}

// StageOccupancyScalar returns, per stage, the fraction of non-zero nodes
// averaged over the trees.
func StageOccupancyScalar(s *core.Sketch) []float64 {
	occ := make([]float64, s.Depth())
	for t := 0; t < s.NumTrees(); t++ {
		for l := range occ {
			vals := StageValues(s, t, l)
			nz := 0
			for _, v := range vals {
				if v != 0 {
					nz++
				}
			}
			occ[l] += float64(nz) / float64(len(vals))
		}
	}
	for l := range occ {
		occ[l] /= float64(s.NumTrees())
	}
	return occ
}

// OverflowedNodesScalar returns, per stage, the nodes at or above the
// overflow marker summed across trees; at the root, the nodes at or above
// the counting capacity (clamped nodes).
func OverflowedNodesScalar(s *core.Sketch) []int {
	over := make([]int, s.Depth())
	last := s.Depth() - 1
	for t := 0; t < s.NumTrees(); t++ {
		for l := range over {
			bound := s.StageMax(l) + 1
			if l == last {
				bound--
			}
			for _, v := range StageValues(s, t, l) {
				if uint64(v) >= bound {
					over[l]++
				}
			}
		}
	}
	return over
}

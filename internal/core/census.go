package core

// StageCensus is one stage of one tree, counted in a single pass over its
// registers: everything the live accuracy report (internal/insight) and
// the sketch gauges read from the registers.
type StageCensus struct {
	// Nonzero counts the nodes holding any count (occupancy; at the
	// leaves, w1 minus the w0 of linear counting).
	Nonzero int
	// Overflowed counts the nodes at or above the overflow marker — at
	// the root, at or above the counting capacity: clamped nodes.
	Overflowed int
	// Load is the count mass resident at the stage: a node exactly at
	// the marker below the root counts as its capacity θ_l, any other
	// node as its value. The per-stage split prices each stage's
	// collision error (ε_l = e/w_l applies to the mass that reached l).
	Load uint64
	// Max is the largest register value — at the root, the saturation
	// headroom signal: the sketch clamps once it reaches StageMax.
	Max uint64
}

// Census scans every register once and returns, per tree and stage
// (leaves first), the stage's census. It walks each stage's typed lane at
// its native width — scrape-time or per-window only, never on the ingest
// path.
func (s *Sketch) Census() [][]StageCensus {
	depth := len(s.widths)
	flat := make([]StageCensus, len(s.trees)*depth)
	out := make([][]StageCensus, len(s.trees))
	for ti, t := range s.trees {
		out[ti] = flat[ti*depth : (ti+1)*depth : (ti+1)*depth]
		for l := range out[ti] {
			out[ti][l] = t.stageCensus(l)
		}
	}
	return out
}

// stageCensus counts stage l of the tree.
func (t *tree) stageCensus(l int) StageCensus {
	sv := t.views[l]
	root := l == len(t.views)-1
	switch sv.kind {
	case laneU8:
		return census(t.lane8[sv.base:sv.base+sv.n], t.mark[l], t.max[l], root)
	case laneU16:
		return census(t.lane16[sv.base:sv.base+sv.n], t.mark[l], t.max[l], root)
	default:
		return census(t.lane32[sv.base:sv.base+sv.n], t.mark[l], t.max[l], root)
	}
}

// census is the one-pass stage count over a lane slice. mark and capacity
// fit the lane (a stage is never wider than its lane), so the compares run
// at lane width. Below the root the mass is the plain register sum with
// each node exactly at the marker corrected down to the capacity; a node
// above the marker (a decoded snapshot may carry one) counts as its value
// but still as overflowed.
func census[T uint8 | uint16 | uint32](vals []T, mark, capacity uint32, root bool) StageCensus {
	m, bound := T(mark), T(mark)
	if root {
		bound = T(capacity)
	}
	var nonzero, over, marked int
	var sum uint64
	var top T
	for _, v := range vals {
		if v != 0 {
			nonzero++
		}
		if v >= bound {
			over++
		}
		if v == m {
			marked++
		}
		sum += uint64(v)
		top = max(top, v)
	}
	if !root {
		sum -= uint64(marked) * uint64(mark-capacity)
	}
	return StageCensus{Nonzero: nonzero, Overflowed: over, Load: sum, Max: uint64(top)}
}

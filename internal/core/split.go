package core

import (
	"math"
	"runtime"
	"sync/atomic"
)

// Split register passes. A window rotation clears and merges whole 1 MiB
// sketches, and ResetSplit and MergeSplit spread those passes over the
// machine's cores by root-node ranges. Within a tree the subtrees of
// different root nodes never exchange carries, so a range of roots maps
// to one contiguous node range on every stage, and merging it needs only
// the carries of its own children: each range runs every stage of every
// tree on its own, with no barrier between stages. Range boundaries are
// multiples of rootAlign roots, which puts them on a carry-bitmap word
// (64 nodes) and a 32-byte block at every stage: the ranges of a merge
// share its one carry pair, each touching only its own entries and bitmap
// words, and the word kernel sees the same block grid as an uncut stage.
//
// A pass cuts ranges of splitMinPart leaf bytes, more than there are
// cores, and every goroutine claims the next range until none is left
// (split). A core that is slow to wake, or busy with other work, then
// takes fewer ranges or none, and the pass costs the caller little more
// than a serial one.

// rootAlign is the root-node multiple every range boundary sits on.
const rootAlign = 64

// splitMinPart is the smallest leaf-stage range, in bytes, that a split
// pass cuts: below it claiming a range costs more than clearing or
// merging it.
const splitMinPart = 32 << 10

// splitParts is the number of ranges a split pass cuts n leaf-stage bytes
// into: one per minimum range, and one in all on a single core. Tests
// replace it to force cuts inside small sketches.
var splitParts = func(n int) int {
	if runtime.GOMAXPROCS(0) == 1 {
		return 1
	}
	return max(1, n/splitMinPart)
}

// whole keeps a merge in one piece: Merge's cut.
func whole(int) int { return 1 }

// MergeSplit is Merge cut into root ranges of at least 32 KiB of leaves,
// merged by up to GOMAXPROCS goroutines (the caller's among them). The
// registers it leaves are bit-identical to Merge's. Sketches under two
// minimum ranges, and trees deeper than three stages, merge serially. It
// takes the machine's idle cores for the length of one merge, so it suits
// a pass no answer waits behind, such as a window rotation; folds that
// answer queries beside ingest use Merge.
func (s *Sketch) MergeSplit(o *Sketch) error { return s.merge(o, splitParts) }

// ResetSplit clears every sketch in sks, as Reset does, cut into root
// ranges the way MergeSplit cuts a merge: each range is cleared on every
// stage of every tree of every sketch by whichever goroutine claims it,
// so one fan-out serves them all. Sketches under two minimum ranges in
// all are cleared serially.
func ResetSplit(sks ...*Sketch) {
	n, p := 0, math.MaxInt
	for _, s := range sks {
		n += s.trees[0].stageLen(0) << s.trees[0].views[0].kind
		p = rangeCount(s.roots(), p)
	}
	if p = min(p, splitParts(n)); p <= 1 {
		for _, s := range sks {
			s.Reset()
		}
		return
	}
	split(p, func(j int) {
		for _, s := range sks {
			roots := s.roots()
			r0, r1 := rootRange(roots, p, j)
			for _, t := range s.trees {
				for l := range t.views {
					scale := t.stageLen(l) / roots
					t.clearStage(l, r0*scale, r1*scale)
				}
			}
		}
	})
}

// roots returns the root-node count of one tree.
func (s *Sketch) roots() int { return s.trees[0].stageLen(len(s.widths) - 1) }

// mergeParts is the number of root ranges a merge cuts s into: parts of
// its leaf stage, its largest, as far as the tree's rootAlign-root units
// allow. A tree deeper than three stages stays whole: its carry pair
// serves two stages per buffer in turn, so ranges at different stages
// would collide in one.
func (s *Sketch) mergeParts(roots int, parts func(int) int) int {
	if len(s.widths) > 3 {
		return 1
	}
	t := s.trees[0]
	return rangeCount(roots, parts(t.stageLen(0)<<t.views[0].kind))
}

// rangeCount caps a part count at the rootAlign-root units a tree of
// roots root nodes holds (at least one).
func rangeCount(roots, parts int) int {
	return max(1, min(parts, (roots+rootAlign-1)/rootAlign))
}

// rootRange returns the root nodes [r0, r1) of range j of p: whole units
// of rootAlign roots, spread as evenly as the units allow, the last range
// ending at the last root.
func rootRange(roots, p, j int) (r0, r1 int) {
	units := (roots + rootAlign - 1) / rootAlign
	return rootAlign * (j * units / p), min(roots, rootAlign*((j+1)*units/p))
}

// clearStage zeroes nodes [lo, hi) of stage l.
func (t *tree) clearStage(l, lo, hi int) {
	sv := t.views[l]
	switch sv.kind {
	case laneU8:
		clear(t.lane8[sv.base+lo : sv.base+hi])
	case laneU16:
		clear(t.lane16[sv.base+lo : sv.base+hi])
	default:
		clear(t.lane32[sv.base+lo : sv.base+hi])
	}
}

// split runs part(j) for every j in [0, n) on up to GOMAXPROCS
// goroutines, the caller's among them, each claiming the next unclaimed
// part until none is left. It returns once every part is done, without
// waiting for a goroutine that claimed none: that one finds no part left
// and exits without touching the data.
func split(n int, part func(j int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	var next, done atomic.Int64
	finished := make(chan struct{})
	claim := func() {
		for j := int(next.Add(1) - 1); j < n; j = int(next.Add(1) - 1) {
			part(j)
			if done.Add(1) == int64(n) {
				close(finished)
			}
		}
	}
	for w := 1; w < workers; w++ {
		go claim()
	}
	claim()
	<-finished
}

// Package core implements FCM-Sketch (§3 of the paper): a k-ary tree of
// counter stages where small counters at the leaves overflow into fewer,
// larger counters toward the root. The overflow indicator is the counter's
// maximum value (2^b−1 means "count 2^b−2 and overflowed"), so no separate
// flag bits are spent. A multi-tree sketch takes the minimum estimate over
// d independent trees, exactly like Count-Min.
//
// The package also implements the data-plane queries of §3.3 (count query,
// Linear-Counting cardinality) and the control-plane conversion of the
// sketch into virtual counters (§4.1) consumed by the EM estimator.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/sketch"
)

// Stats is the sketch's optional hot-path self-telemetry: update volume,
// per-boundary overflow promotions, and root-stage saturations, all plain
// atomics so readers (a scraping goroutine) never coordinate with the
// writer. A sketch with no Stats attached pays only a nil check per stage
// visited; with Stats attached, Update adds one uncontended atomic add
// (promotions and saturations are off the common path — they fire only
// when a counter actually overflows).
//
// Counts are cumulative over the sketch's lifetime; Reset does not clear
// them (scrapers take deltas). Several sketches may share one Stats to
// aggregate, or each shard may carry its own for per-shard series.
type Stats struct {
	// Updates counts Update calls (not packets×trees: one per call).
	Updates atomic.Uint64
	// Promotions[l] counts nodes of stage l (0-based, leaves first) that
	// reached their overflow marker and promoted their excess to stage
	// l+1 — the 8-bit → 16-bit → 32-bit escalation of §3.1. Length is
	// depth−1: the root has no parent to promote into.
	Promotions []atomic.Uint64
	// Saturations counts updates clamped at the root stage's counting
	// capacity — the sketch's hard overflow, after which counts are
	// underestimates.
	Saturations atomic.Uint64
}

// NewStats builds a Stats sized for a sketch of the given stage depth.
func NewStats(depth int) *Stats {
	if depth < 1 {
		depth = 1
	}
	return &Stats{Promotions: make([]atomic.Uint64, depth-1)}
}

// PromotionCount returns Promotions[l], or 0 when l is out of range.
func (s *Stats) PromotionCount(l int) uint64 {
	if l < 0 || l >= len(s.Promotions) {
		return 0
	}
	return s.Promotions[l].Load()
}

// Config parameterizes an FCM-Sketch.
type Config struct {
	// K is the tree arity; stage l+1 has 1/K the nodes of stage l. The
	// paper recommends 8 for FCM and 16 for FCM+TopK (§7.4).
	K int
	// Trees is the number of independent trees d (default/paper: 2).
	Trees int
	// Widths is the counter bit width of each stage, leaves first. The
	// paper's deployment uses byte-aligned {8, 16, 32}; smaller widths
	// (e.g. the {2, 4, 8} of Fig. 4) are accepted for testing.
	Widths []int
	// MemoryBytes is the total counter budget across all trees. Exactly
	// one of MemoryBytes and LeafWidth must be set.
	MemoryBytes int
	// LeafWidth directly sets w1 (nodes at stage 1 per tree), bypassing
	// the memory solver. Must be a positive multiple of K^(stages-1).
	LeafWidth int
	// Hash provides the independent per-tree hash functions; nil selects
	// BobHash with a fixed seed.
	Hash hashing.Family
	// FlagBitIndicator switches to the explicit overflow-flag encoding
	// used by earlier counter-sharing designs [19, 60]: one bit of every
	// node is spent on the flag, halving the counting range. The paper's
	// design intuition #2 argues the max-value marker is strictly better;
	// this option exists for the ablation experiment that verifies it.
	FlagBitIndicator bool
	// PerTreeHash forces one independent hash evaluation per tree (the
	// pre-one-pass behavior), even when Hash supports deriving all tree
	// indexes from a single pass (hashing.WideFamily). Counter placement
	// differs between the two modes, so sketches are only mergeable with
	// sketches of the same mode; the default (one-pass, when available) is
	// faster and statistically equivalent.
	PerTreeHash bool
	// Conservative enables conservative-update semantics across trees
	// (Estan & Varghese [26], generalized to FCM): on update, only trees
	// whose current count query falls below min+inc are raised, and only
	// up to that target. §7.1 notes CU improves FCM about as much as it
	// improves CM; the paper skips it in the evaluation, so it is off by
	// default and exercised by the ablation benchmarks. Multi-tree only —
	// with a single tree it is a no-op. Not implementable on PISA (it
	// needs all trees' reads before any write).
	Conservative bool
}

// DefaultWidths is the paper's byte-aligned stage layout.
func DefaultWidths() []int { return []int{8, 16, 32} }

// laneKind selects which typed counter lane a stage's nodes live in.
type laneKind uint8

// The kinds are numbered so that a lane holds 1 << kind bytes per node.
const (
	laneU8  laneKind = iota // stage widths ≤ 8 bits: one byte per node
	laneU16                 // 9–16 bits: two bytes per node
	laneU32                 // 17–32 bits: four bytes per node
)

// laneKindFor returns the narrowest lane that holds a b-bit counter.
func laneKindFor(b int) laneKind {
	switch {
	case b <= 8:
		return laneU8
	case b <= 16:
		return laneU16
	default:
		return laneU32
	}
}

// LaneBytes returns the bytes per counter a b-bit stage occupies: 1, 2 or
// 4. It is the resident layout, and the layout AppendStageBytes and
// SetStageBytes exchange.
func LaneBytes(b int) int { return 1 << laneKindFor(b) }

// stageView locates one stage inside its typed lane.
type stageView struct {
	kind laneKind
	base int // node offset inside the lane
	n    int // node count
}

// tree is a single k-ary FCM tree. Stages live in three typed counter
// lanes — bytes, uint16s and uint32s — each contiguous, leaves first
// within a lane, so the paper's width-heterogeneous hardware layout (§3.1:
// level 1 saturates at 254, level 2 at 65534) is also the software
// resident layout: the leaf stage costs one byte per node instead of four,
// and the update walk touches 1+2+4 bytes per tree instead of 12.
type tree struct {
	// Hot-walk fields lead the struct so the unrolled walk's working set
	// (three lane headers plus the denormalized limits) spans the fewest
	// cache lines.
	lane8  []uint8
	lane16 []uint16
	lane32 []uint32
	kshift uint // log2(K) when K is a power of two; the parent step is then a shift
	// std3 marks the hardware-shaped fast layout — exactly three stages,
	// one whole stage per lane — whose walk is fully unrolled with each
	// level's mark and capacity denormalized at the lane's native width.
	std3     bool
	m8, c8   uint8  // stage-0 overflow marker and counting capacity
	m16, c16 uint16 // stage-1 overflow marker and counting capacity
	cap32    uint32 // root counting capacity
	k        int
	w0       int         // leaf-stage width, denormalized for the hot walk
	stats    *Stats      // shared with the owning Sketch; nil = uninstrumented
	views    []stageView // per-stage lane placement (cold paths index through load/store)
	lims     []limits    // per-stage mark+max pairs for the generic walk
	max      []uint32    // counting capacity per stage: 2^b − 2
	mark     []uint32    // overflow marker per stage: 2^b − 1
	hasher   hashing.Hasher
}

// limits pairs a stage's overflow marker with its counting capacity so the
// generic walk reads both with a single slice access.
type limits struct {
	mark, max uint32
}

// parent returns the stage-(l+1) index of leaf-walk index idx.
func (t *tree) parent(idx int) int {
	if t.kshift != 0 {
		return idx >> t.kshift
	}
	return idx / t.k
}

// initLanes allocates the typed counter lanes and builds the per-stage
// views for a tree of the sketch's geometry — the one place (shared by New
// and Clone) that knows how stages pack into lanes.
func (s *Sketch) initLanes(t *tree) {
	var n8, n16, n32 int
	w := s.w1
	for _, b := range s.widths {
		t.views = append(t.views, stageView{kind: laneKindFor(b), n: w})
		switch t.views[len(t.views)-1].kind {
		case laneU8:
			t.views[len(t.views)-1].base = n8
			n8 += w
		case laneU16:
			t.views[len(t.views)-1].base = n16
			n16 += w
		default:
			t.views[len(t.views)-1].base = n32
			n32 += w
		}
		w /= s.k
	}
	t.lane8 = make([]uint8, n8)
	t.lane16 = make([]uint16, n16)
	t.lane32 = make([]uint32, n32)

	t.std3 = len(s.widths) == 3 &&
		t.views[0].kind == laneU8 && t.views[1].kind == laneU16 && t.views[2].kind == laneU32
	if t.std3 {
		t.m8, t.c8 = uint8(t.mark[0]), uint8(t.max[0])
		t.m16, t.c16 = uint16(t.mark[1]), uint16(t.max[1])
		t.cap32 = t.max[2]
	}
}

// load returns the value of node i of stage l at uniform 32-bit width.
// Cold paths (merge, conversion, scans, collection) go through load/store;
// the ingest walks address the lanes directly.
func (t *tree) load(l, i int) uint32 {
	sv := t.views[l]
	switch sv.kind {
	case laneU8:
		return uint32(t.lane8[sv.base+i])
	case laneU16:
		return uint32(t.lane16[sv.base+i])
	default:
		return t.lane32[sv.base+i]
	}
}

// store writes node i of stage l. v must fit the stage's width; callers
// inside this package only store values bounded by the stage mark.
func (t *tree) store(l, i int, v uint32) {
	sv := t.views[l]
	switch sv.kind {
	case laneU8:
		t.lane8[sv.base+i] = uint8(v)
	case laneU16:
		t.lane16[sv.base+i] = uint16(v)
	default:
		t.lane32[sv.base+i] = v
	}
}

// stageLen returns the node count of stage l.
func (t *tree) stageLen(l int) int { return t.views[l].n }

// Sketch is a (possibly multi-tree) FCM-Sketch.
type Sketch struct {
	trees        []*tree
	k            int
	widths       []int
	w1           int
	conservative bool
	// std3 mirrors the trees' fast-layout flag so the per-packet dispatch
	// is one field read on the sketch already in cache.
	std3 bool
	// wide, when non-nil, selects one-pass multi-index hashing: a single
	// lookup3 pass per packet yields every tree's leaf index (the concrete
	// type devirtualizes the per-packet hash call). nil falls back to one
	// hasher evaluation per tree.
	wide  *hashing.BobWide
	stats *Stats // nil = uninstrumented
}

// New builds an FCM-Sketch from cfg.
func New(cfg Config) (*Sketch, error) {
	if cfg.K < 2 {
		return nil, fmt.Errorf("core: K must be ≥ 2, got %d", cfg.K)
	}
	if cfg.Trees <= 0 {
		return nil, fmt.Errorf("core: Trees must be positive, got %d", cfg.Trees)
	}
	widths := cfg.Widths
	if len(widths) == 0 {
		widths = DefaultWidths()
	}
	if len(widths) < 2 {
		return nil, fmt.Errorf("core: need at least 2 stages, got %d", len(widths))
	}
	for i, b := range widths {
		if b < 2 || b > 32 {
			return nil, fmt.Errorf("core: stage %d width %d out of range [2,32]", i, b)
		}
		if i > 0 && b <= widths[i-1] {
			return nil, fmt.Errorf("core: stage widths must increase, got %v", widths)
		}
	}
	depth := len(widths)
	leafAlign := 1
	for i := 1; i < depth; i++ {
		leafAlign *= cfg.K
	}

	w1 := cfg.LeafWidth
	switch {
	case w1 > 0 && cfg.MemoryBytes > 0:
		return nil, fmt.Errorf("core: set only one of MemoryBytes and LeafWidth")
	case w1 > 0:
		if w1%leafAlign != 0 {
			return nil, fmt.Errorf("core: LeafWidth %d not a multiple of K^(stages-1) = %d", w1, leafAlign)
		}
	case cfg.MemoryBytes > 0:
		w1 = solveLeafWidth(cfg.MemoryBytes, cfg.Trees, cfg.K, widths)
		if w1 < leafAlign {
			return nil, fmt.Errorf("core: memory %dB too small for %d trees of %d-ary depth %d",
				cfg.MemoryBytes, cfg.Trees, cfg.K, depth)
		}
	default:
		return nil, fmt.Errorf("core: one of MemoryBytes or LeafWidth is required")
	}

	fam := cfg.Hash
	if fam == nil {
		fam = hashing.NewBobFamily(0xfc0fc0)
	}
	// Copy widths so a caller mutating its Config slice after New cannot
	// corrupt the sketch geometry.
	s := &Sketch{
		k:            cfg.K,
		widths:       append([]int(nil), widths...),
		w1:           w1,
		conservative: cfg.Conservative,
	}
	if !cfg.PerTreeHash {
		if wf, ok := fam.(hashing.WideFamily); ok {
			s.wide = wf.Wide()
		}
	}
	var kshift uint
	if cfg.K&(cfg.K-1) == 0 {
		kshift = uint(bits.TrailingZeros(uint(cfg.K)))
	}
	for t := 0; t < cfg.Trees; t++ {
		tr := &tree{k: cfg.K, kshift: kshift, w0: w1, hasher: fam.New(t)}
		for _, b := range widths {
			if cfg.FlagBitIndicator {
				// Counting bits: b−1; the marker position stands in
				// for the dedicated flag bit.
				m := uint32(1) << uint(b-1)
				tr.mark = append(tr.mark, m)
				tr.max = append(tr.max, m-1)
			} else {
				m := uint32(1)<<uint(b) - 1
				tr.mark = append(tr.mark, m)
				tr.max = append(tr.max, m-1)
			}
		}
		for l := range tr.mark {
			tr.lims = append(tr.lims, limits{mark: tr.mark[l], max: tr.max[l]})
		}
		s.initLanes(tr)
		s.trees = append(s.trees, tr)
	}
	s.std3 = s.trees[0].std3
	return s, nil
}

// OnePassHash reports whether the sketch derives all tree indexes from a
// single hash pass (the default with a hashing.WideFamily such as
// BobFamily) rather than evaluating one hash per tree. The two modes place
// counters differently and are therefore not mergeable with each other.
func (s *Sketch) OnePassHash() bool { return s.wide != nil }

// solveLeafWidth computes the largest w1 (multiple of k^(depth−1)) whose
// full tree fits the per-tree byte budget.
func solveLeafWidth(memBytes, trees, k int, widths []int) int {
	perTree := float64(memBytes) / float64(trees)
	bytesPerLeaf := 0.0 // bytes consumed per leaf slot across all stages
	div := 1.0
	for _, b := range widths {
		bytesPerLeaf += float64(b) / 8 / div
		div *= float64(k)
	}
	w1 := int(perTree / bytesPerLeaf)
	align := 1
	for i := 1; i < len(widths); i++ {
		align *= k
	}
	return w1 / align * align
}

// Update implements sketch.Updater: Algorithm 1 applied to every tree.
// Counting capacity absorbed at a stage is max−value; everything beyond
// (including the marker-setting increment) feeds forward to the parent.
func (s *Sketch) Update(key []byte, inc uint64) {
	if inc == 0 {
		return
	}
	if s.stats != nil {
		s.stats.Updates.Add(1)
	}
	if s.conservative && len(s.trees) > 1 {
		s.updateConservative(key, inc)
		return
	}
	if w := s.wide; w != nil {
		// One hash pass for all trees; indexes derive from its two lanes.
		pc, pb := w.Pair(key)
		if ts := s.trees; len(ts) == 2 {
			// The paper's default shape, with the lane derivations
			// inlined (WideIndex itself is over the inlining budget).
			i0 := hashing.WideIndex0(pc, pb, s.w1)
			i1 := hashing.WideIndex1(pc, pb, s.w1)
			if s.std3 {
				ts[0].updateAt3(i0, inc)
				ts[1].updateAt3(i1, inc)
			} else {
				ts[0].updateAtAny(i0, inc)
				ts[1].updateAtAny(i1, inc)
			}
			return
		}
		for i, t := range s.trees {
			t.updateAt(hashing.WideIndex(pc, pb, i, s.w1), inc)
		}
		return
	}
	for _, t := range s.trees {
		t.updateAt(t.leafIndex(key), inc)
	}
}

// UpdateBatch implements sketch.BatchUpdater: it records inc occurrences
// of every key in keys, equivalent to (but cheaper than) one Update call
// per key. Batching amortizes the per-call overhead — the stats check, the
// conservative/wide dispatch, and the interface call the caller paid to
// reach the sketch — and keeps keys cache-hot across the per-tree walks.
// It performs no allocation.
func (s *Sketch) UpdateBatch(keys [][]byte, inc uint64) {
	if inc == 0 || len(keys) == 0 {
		return
	}
	if s.stats != nil {
		s.stats.Updates.Add(uint64(len(keys)))
	}
	if s.conservative && len(s.trees) > 1 {
		for _, key := range keys {
			s.updateConservative(key, inc)
		}
		return
	}
	if w := s.wide; w != nil {
		if ts := s.trees; len(ts) == 2 {
			t0, t1, w1 := ts[0], ts[1], s.w1
			if s.std3 {
				for _, key := range keys {
					pc, pb := w.Pair(key)
					t0.updateAt3(hashing.WideIndex0(pc, pb, w1), inc)
					t1.updateAt3(hashing.WideIndex1(pc, pb, w1), inc)
				}
				return
			}
			for _, key := range keys {
				pc, pb := w.Pair(key)
				t0.updateAtAny(hashing.WideIndex0(pc, pb, w1), inc)
				t1.updateAtAny(hashing.WideIndex1(pc, pb, w1), inc)
			}
			return
		}
		for _, key := range keys {
			pc, pb := w.Pair(key)
			for i, t := range s.trees {
				t.updateAt(hashing.WideIndex(pc, pb, i, s.w1), inc)
			}
		}
		return
	}
	for _, key := range keys {
		for _, t := range s.trees {
			t.updateAt(t.leafIndex(key), inc)
		}
	}
}

// leafIndex returns the per-tree-hash leaf index for key (the fallback
// when one-pass wide hashing is unavailable or disabled).
func (t *tree) leafIndex(key []byte) int {
	return hashing.Reduce(t.hasher.Hash(key), t.w0)
}

// leafIndexes fills dst (length = number of trees) with every tree's leaf
// index for key, using one wide pass when available.
func (s *Sketch) leafIndexes(key []byte, dst []int) {
	if w := s.wide; w != nil {
		pc, pb := w.Pair(key)
		for i := range dst {
			dst[i] = hashing.WideIndex(pc, pb, i, s.w1)
		}
		return
	}
	for i, t := range s.trees {
		dst[i] = t.leafIndex(key)
	}
}

// treeIndexes returns every tree's leaf index for key, on the stack for
// the common tree counts.
func (s *Sketch) treeIndexes(key []byte, buf *[8]int) []int {
	var idxs []int
	if d := len(s.trees); d <= len(buf) {
		idxs = buf[:d]
	} else {
		idxs = make([]int, d)
	}
	s.leafIndexes(key, idxs)
	return idxs
}

// updateConservative raises each tree's count query only up to
// min-over-trees + inc, the CU rule generalized to FCM. The estimate stays
// one-sided (it never drops below the true count) because the minimum tree
// was a valid overestimate before the update and gains the full increment.
func (s *Sketch) updateConservative(key []byte, inc uint64) {
	var buf [8]int
	idxs := s.treeIndexes(key, &buf)
	min := uint64(math.MaxUint64)
	for i, t := range s.trees {
		if v := t.queryAt(idxs[i]); v < min {
			min = v
		}
	}
	target := min + inc
	for i, t := range s.trees {
		if cur := t.queryAt(idxs[i]); cur < target {
			t.updateAt(idxs[i], target-cur)
		}
	}
}

// updateAt runs Algorithm 1's leaf-to-root walk from leaf index idx,
// dispatching to the unrolled three-lane walk when the tree has the
// hardware-shaped layout.
func (t *tree) updateAt(idx int, inc uint64) {
	if t.std3 {
		t.updateAt3(idx, inc)
		return
	}
	t.updateAtAny(idx, inc)
}

// updateAt3 is the walk for the standard three-stage layout, unrolled over
// the byte, uint16 and uint32 lanes. Overflow checks compare against the
// marker at the lane's native width (254/65534 for the paper's 8/16-bit
// levels), and each level touches exactly one node of one lane — 1, 2 and
// 4 bytes — so the whole walk usually stays inside two cache lines.
func (t *tree) updateAt3(idx int, inc uint64) {
	// Fields are read into locals before each lane store (a []uint8 store
	// could alias the tree struct as far as the compiler knows, forcing
	// reloads), and nothing a level doesn't need is touched before its
	// early return: the dominant no-overflow leaf update reads exactly the
	// lane header, the two denormalized limits and one byte.
	lane8, m8 := t.lane8, t.m8
	if v := lane8[idx]; v != m8 {
		c := uint64(t.c8 - v)
		if inc <= c {
			lane8[idx] = v + uint8(inc)
			return
		}
		lane8[idx] = m8
		inc -= c
		if st := t.stats; st != nil {
			st.Promotions[0].Add(1)
		}
	}
	kshift := t.kshift
	if kshift != 0 {
		idx >>= kshift
	} else {
		idx /= t.k
	}
	lane16, m16 := t.lane16, t.m16
	if v := lane16[idx]; v != m16 {
		c := uint64(t.c16 - v)
		if inc <= c {
			lane16[idx] = v + uint16(inc)
			return
		}
		lane16[idx] = m16
		inc -= c
		if st := t.stats; st != nil {
			st.Promotions[1].Add(1)
		}
	}
	if kshift != 0 {
		idx >>= kshift
	} else {
		idx /= t.k
	}
	// Root stage: saturate at the counting capacity.
	lane32 := t.lane32
	sum := uint64(lane32[idx]) + inc
	if mx := uint64(t.cap32); sum > mx {
		sum = mx
		if st := t.stats; st != nil {
			st.Saturations.Add(1)
		}
	}
	lane32[idx] = uint32(sum)
}

// updateAtAny is the generic walk for non-standard geometries (sub-byte
// widths, depth ≠ 3, the widening shim): per level it resolves the stage's
// lane through load/store and checks the fused (mark,max) limits.
func (t *tree) updateAtAny(idx int, inc uint64) {
	lims := t.lims
	last := len(lims) - 1
	// Non-root stages; the root is peeled out of the loop because it
	// saturates instead of promoting.
	for l := 0; l < last; l++ {
		v := t.load(l, idx)
		if lim := lims[l]; v != lim.mark {
			capacity := uint64(lim.max - v)
			if inc <= capacity {
				t.store(l, idx, v+uint32(inc))
				return
			}
			t.store(l, idx, lim.mark)
			inc -= capacity
			if t.stats != nil {
				t.stats.Promotions[l].Add(1)
			}
		}
		idx = t.parent(idx)
	}
	// Root stage: saturate at the counting capacity.
	sum := uint64(t.load(last, idx)) + inc
	if mx := uint64(lims[last].max); sum > mx {
		sum = mx
		if t.stats != nil {
			t.stats.Saturations.Add(1)
		}
	}
	t.store(last, idx, uint32(sum))
}

// Estimate implements sketch.Estimator: the count query of §3.2, minimized
// over trees.
func (s *Sketch) Estimate(key []byte) uint64 {
	min := uint64(math.MaxUint64)
	if w := s.wide; w != nil {
		pc, pb := w.Pair(key)
		if ts := s.trees; len(ts) == 2 && s.std3 {
			v0 := ts[0].queryAt3(hashing.WideIndex0(pc, pb, s.w1))
			v1 := ts[1].queryAt3(hashing.WideIndex1(pc, pb, s.w1))
			if v1 < v0 {
				return v1
			}
			return v0
		}
		for i, t := range s.trees {
			if v := t.queryAt(hashing.WideIndex(pc, pb, i, s.w1)); v < min {
				min = v
			}
		}
		return min
	}
	for _, t := range s.trees {
		if v := t.queryAt(t.leafIndex(key)); v < min {
			min = v
		}
	}
	return min
}

// queryAt answers the count query of §3.2 from leaf index idx, walking the
// lanes like updateAt.
func (t *tree) queryAt(idx int) uint64 {
	if t.std3 {
		return t.queryAt3(idx)
	}
	lims := t.lims
	last := len(lims) - 1
	est := uint64(0)
	for l := 0; ; l++ {
		v := t.load(l, idx)
		if l == last || v != lims[l].mark {
			est += uint64(v)
			return est
		}
		est += uint64(lims[l].max)
		idx = t.parent(idx)
	}
}

// queryAt3 is the count query unrolled over the three typed lanes.
func (t *tree) queryAt3(idx int) uint64 {
	kshift, k := t.kshift, t.k
	v0 := t.lane8[idx]
	if v0 != t.m8 {
		return uint64(v0)
	}
	est := uint64(t.c8)
	if kshift != 0 {
		idx >>= kshift
	} else {
		idx /= k
	}
	v1 := t.lane16[idx]
	if v1 != t.m16 {
		return est + uint64(v1)
	}
	est += uint64(t.c16)
	if kshift != 0 {
		idx >>= kshift
	} else {
		idx /= k
	}
	return est + uint64(t.lane32[idx])
}

// Cardinality implements the Linear-Counting estimator of §3.3 over the
// trees' stage-1 arrays (LinearCount).
func (s *Sketch) Cardinality() float64 { return LinearCount(s.w1, s.EmptyLeaves()) }

// LinearCount is the Linear-Counting estimate n̂ = −w1·ln(w0/w1) of §3.3
// for w1 leaves per tree, w0 of them empty (averaged over the trees).
func LinearCount(leaves int, w0 float64) float64 {
	w1 := float64(leaves)
	if w0 <= 0 {
		// Linear counting saturates when no leaf is empty; return its
		// limit with a single empty slot, the standard LC fallback.
		w0 = 1
	}
	// +0 normalizes the empty-sketch result: log(w1/w1) is +0 and
	// negating it would otherwise surface as -0 in reports and JSON.
	return -w1*math.Log(w0/w1) + 0
}

// EmptyLeaves returns the number of zero-valued stage-1 nodes averaged over
// the trees (the w0 of §3.3).
func (s *Sketch) EmptyLeaves() float64 {
	total := 0
	for _, t := range s.trees {
		sv := t.views[0]
		switch sv.kind {
		case laneU8:
			total += zeroFields(t.lane8[sv.base:sv.base+sv.n], 8)
		case laneU16:
			total += zeroFields(sketch.BytesU16(t.lane16[sv.base:sv.base+sv.n]), 16)
		default:
			total += zeroFields(sketch.BytesU32(t.lane32[sv.base:sv.base+sv.n]), 32)
		}
	}
	return float64(total) / float64(len(s.trees))
}

// zeroFields counts the zero fieldBits-wide counters in the lane bytes
// buf a 64-bit word at a time (see zeroTops). Per-field hit counts
// accumulate in one word across a run of blocks and are then summed with
// one multiply; the sub-word tail is padded with nonzero bytes, which
// count as occupied.
func zeroFields(buf []byte, fieldBits uint) int {
	rep := ^uint64(0) / (1<<fieldBits - 1) // 1 in the low bit of every field
	top := rep << (fieldBits - 1)
	low, down := ^top, (fieldBits-1)&63
	ne := binary.NativeEndian
	n, i := 0, 0
	for i+blockBytes <= len(buf) {
		// Seven blocks are 28 words: every field of acc stays below 32,
		// so the multiply by rep sums the fields into the top one
		// without overflow.
		var acc uint64
		for end := min(len(buf)&^(blockBytes-1), i+7*blockBytes); i < end; i += blockBytes {
			w := buf[i : i+blockBytes : i+blockBytes]
			acc += zeroTops(ne.Uint64(w[0:]), low, top)>>down +
				zeroTops(ne.Uint64(w[8:]), low, top)>>down +
				zeroTops(ne.Uint64(w[16:]), low, top)>>down +
				zeroTops(ne.Uint64(w[24:]), low, top)>>down
		}
		n += int(acc * rep >> (64 - fieldBits))
	}
	for ; i < len(buf); i += 8 {
		tail := [8]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
		copy(tail[:], buf[i:])
		n += bits.OnesCount64(zeroTops(ne.Uint64(tail[:]), low, top))
	}
	return n
}

// zeroTops returns x with each field's top bit set exactly when the field
// is zero, and every other bit clear. low holds every bit but the fields'
// top bits (top): (x&low)+low sets a field's top bit when its low bits
// are nonzero without carrying out of the field, and |x adds the top bit
// itself.
func zeroTops(x, low, top uint64) uint64 { return ^((x & low) + low | x) & top }

// MemoryBytes implements sketch.Sized: the exact bit cost of all counters,
// the way the paper accounts memory (a 2-bit stage costs 2 bits per node
// regardless of the byte lane it resides in).
func (s *Sketch) MemoryBytes() int {
	bits := 0
	for _, t := range s.trees {
		for l := range t.views {
			bits += t.views[l].n * s.widths[l]
		}
	}
	return bits / 8
}

// ResidentBytes reports the bytes of counter storage actually allocated:
// one byte per node in the byte lane, two in the uint16 lane, four in the
// uint32 lane. For the paper's {8,16,32} geometry this is 1.3125·w1 per
// tree versus 4.5625·w1 for the uniform 32-bit layout (≈29%); telemetry
// exports it as fcm_sketch_resident_bytes.
func (s *Sketch) ResidentBytes() int {
	n := 0
	for _, t := range s.trees {
		n += len(t.lane8) + 2*len(t.lane16) + 4*len(t.lane32)
	}
	return n
}

// Reset implements sketch.Resettable.
func (s *Sketch) Reset() {
	for _, t := range s.trees {
		clear(t.lane8)
		clear(t.lane16)
		clear(t.lane32)
	}
}

// Clone returns a deep copy of the sketch: counters are copied, hash
// functions (stateless after construction) are shared. The clone ingests
// and merges independently of the original, so it serves as a consistent
// read snapshot or as a per-shard replica. Telemetry is NOT carried over:
// a clone is a snapshot, and double-counting its updates into the
// original's Stats would corrupt the series.
func (s *Sketch) Clone() *Sketch {
	c := &Sketch{
		k:            s.k,
		widths:       append([]int(nil), s.widths...),
		w1:           s.w1,
		conservative: s.conservative,
		std3:         s.std3,
		wide:         s.wide, // stateless after construction, like hashers
	}
	for _, t := range s.trees {
		ct := &tree{
			k:      t.k,
			kshift: t.kshift,
			w0:     t.w0,
			lims:   append([]limits(nil), t.lims...),
			max:    append([]uint32(nil), t.max...),
			mark:   append([]uint32(nil), t.mark...),
			hasher: t.hasher,
		}
		c.initLanes(ct)
		copy(ct.lane8, t.lane8)
		copy(ct.lane16, t.lane16)
		copy(ct.lane32, t.lane32)
		c.trees = append(c.trees, ct)
	}
	return c
}

// SetStats attaches (or, with nil, detaches) hot-path telemetry. st's
// Promotions must cover depth−1 boundaries (NewStats(s.Depth())). Attach
// before concurrent ingest starts: the pointer write is not synchronized
// with in-flight updates.
func (s *Sketch) SetStats(st *Stats) {
	if st != nil && len(st.Promotions) < len(s.widths)-1 {
		panic(fmt.Sprintf("core: Stats sized for %d boundaries, sketch has %d",
			len(st.Promotions), len(s.widths)-1))
	}
	s.stats = st
	for _, t := range s.trees {
		t.stats = st
	}
}

// Stats returns the attached telemetry, or nil.
func (s *Sketch) Stats() *Stats { return s.stats }

// K returns the tree arity.
func (s *Sketch) K() int { return s.k }

// Depth returns the number of stages.
func (s *Sketch) Depth() int { return len(s.widths) }

// NumTrees returns the number of trees d.
func (s *Sketch) NumTrees() int { return len(s.trees) }

// LeafWidth returns w1, the number of stage-1 nodes per tree.
func (s *Sketch) LeafWidth() int { return s.w1 }

// Widths returns the per-stage counter bit widths.
func (s *Sketch) Widths() []int { return append([]int(nil), s.widths...) }

// StageMax returns θ_l, the counting capacity 2^b−2 of stage l (0-based).
func (s *Sketch) StageMax(l int) uint64 { return uint64(s.trees[0].max[l]) }

// AppendStageBytes appends stage l of tree t to dst at the stage's lane
// width — one byte per counter for stages of up to 8 bits, two up to 16,
// four above — little-endian, and returns the extended slice. It is the
// collection plane's read-out: one copy per stage, no widening, and no
// allocation when dst has the capacity. The result never aliases sketch
// state.
func (s *Sketch) AppendStageBytes(dst []byte, t, l int) []byte {
	tr := s.trees[t]
	sv := tr.views[l]
	switch sv.kind {
	case laneU8:
		return append(dst, tr.lane8[sv.base:sv.base+sv.n]...)
	case laneU16:
		src := tr.lane16[sv.base : sv.base+sv.n]
		if nativeLittleEndian {
			return append(dst, sketch.BytesU16(src)...)
		}
		for _, v := range src {
			dst = binary.LittleEndian.AppendUint16(dst, v)
		}
	default:
		src := tr.lane32[sv.base : sv.base+sv.n]
		if nativeLittleEndian {
			return append(dst, sketch.BytesU32(src)...)
		}
		for _, v := range src {
			dst = binary.LittleEndian.AppendUint32(dst, v)
		}
	}
	return dst
}

// SetStageBytes overwrites stage l of tree t from src, laid out as
// AppendStageBytes writes it. src must hold exactly the stage's counters
// at its lane width, so every value fits the resident lane by
// construction.
func (s *Sketch) SetStageBytes(t, l int, src []byte) error {
	tr := s.trees[t]
	sv := tr.views[l]
	size := 1 << sv.kind // LaneBytes of the stage
	if len(src) != sv.n*size {
		return fmt.Errorf("core: stage %d/%d of %d bytes, want %d (%d counters × %d)",
			t, l, len(src), sv.n*size, sv.n, size)
	}
	switch sv.kind {
	case laneU8:
		copy(tr.lane8[sv.base:sv.base+sv.n], src)
	case laneU16:
		dst := tr.lane16[sv.base : sv.base+sv.n]
		if nativeLittleEndian {
			copy(sketch.BytesU16(dst), src)
			return nil
		}
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint16(src[2*i:])
		}
	default:
		dst := tr.lane32[sv.base : sv.base+sv.n]
		if nativeLittleEndian {
			copy(sketch.BytesU32(dst), src)
			return nil
		}
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint32(src[4*i:])
		}
	}
	return nil
}

// nativeLittleEndian selects the memory-copy paths of the stage byte
// accessors: on little-endian hosts the lanes already hold their
// counters in wire order.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// FlagBitIndicator reports whether the sketch uses the explicit
// overflow-flag counter encoding (Config.FlagBitIndicator) rather than
// the max-value marker.
func (s *Sketch) FlagBitIndicator() bool {
	w := s.widths[0]
	return s.trees[0].mark[0] != uint32(1)<<uint(w)-1
}

// StageWidth returns the counter bit width of stage l — the per-stage,
// alloc-free accessor behind Widths.
func (s *Sketch) StageWidth(l int) int { return s.widths[l] }

// TotalCount returns the sum of counts recorded in tree t (each overflowed
// node contributes its capacity, terminals their value): the sum of the
// tree's census loads. It equals the number of packets fed in, absent
// final-stage saturation, and is the invariant the virtual-counter
// conversion must preserve.
func (s *Sketch) TotalCount(t int) uint64 {
	total := uint64(0)
	for l := range s.widths {
		total += s.trees[t].stageCensus(l).Load
	}
	return total
}

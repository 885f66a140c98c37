// Codec v5: delta snapshots. A full snapshot re-sends every register
// every poll; at fleet scale the registers barely change between polls and
// collection bandwidth — not sketch accuracy — becomes the bottleneck
// (DUNE, the P4 Count-Min telemetry analysis). A delta frame carries only
// the registers that changed since a baseline generation both sides agree
// on, plus enough redundancy that a wrong reconstruction is impossible:
//
//   - the frame itself is CRC-32C protected (like a snapshot), so transit
//     corruption is rejected before any field is trusted;
//   - the frame pins the CRC-32C of the COMPLETE post-apply register state
//     (StateCRC), so a client that applies a delta to the wrong baseline —
//     or to a stale one — detects the divergence and falls back to a full
//     snapshot instead of merging garbage;
//   - generation numbers tie each delta to the exact server-side snapshot
//     it was diffed against; any mismatch degrades to a full snapshot.
//
// The fallback is therefore: delta → full (server-chosen, and also
// whenever the delta would be larger than the full encoding). Both
// re-converge; neither can merge wrong.
//
// A changed stage travels without per-counter indexes. Its registers are
// read as 8-byte little-endian words; a presence map holds one bit per
// word, kept two-level — a summary bit per 64-bit map word, then only the
// nonzero map words — so a delta of k registers stays O(k) bytes; then one
// field-mask byte per changed word names its changed counters, and their
// new values follow at the stage's width.
package collect

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Delta frame constants.
const (
	// deltaMagic ("FCMD") is distinct from the snapshot magic so a delta
	// frame can never be mistaken for a raw snapshot.
	deltaMagic = 0x46434d44
	// deltaVersion 5 carries each changed stage as a presence map over its
	// register words, field masks and values, and a full frame's registers
	// bare under the frame CRC. Version 4 carried a u32 index per changed
	// counter and embedded an FCMS version-3 snapshot in full frames.
	deltaVersion = 5
	// deltaFlagFull marks a frame whose body is a complete snapshot (the
	// in-band fallback rung).
	deltaFlagFull = 0x01

	// deltaHeaderLen is the fixed prefix before the body: magic(4),
	// version(1), flags(1), pad(2), baseGen(8), newGen(8), stateCRC(4),
	// bodyLen(4).
	deltaHeaderLen = 32
	// deltaTrailerLen is the CRC-32C over everything before it.
	deltaTrailerLen = 4
	// deltaBlockHeaderLen is one block's prefix: tree(1), stage(1),
	// value bytes(1), pad(1), the stage's counter count(4).
	deltaBlockHeaderLen = 8
	// fullGeometryLen is a full body's fixed geometry prefix: trees(1),
	// stages(1), flags(1), pad(1), k(4), w1(4); one width byte per stage
	// follows.
	fullGeometryLen = 12
	// groupBytes is the register bytes one presence-map word covers:
	// 64 words of 8 bytes.
	groupBytes = 512
	// minBlockLen is the smallest encoded block: a header, one summary
	// byte, one map word, one mask and one value byte.
	minBlockLen = deltaBlockHeaderLen + 1 + 8 + 1 + 1
)

// DeltaBlock is one stage's changed registers in the FCMD version-5 stage
// encoding. The stage's Counters registers of Size bytes each (1, 2 or 4,
// the layout of Snapshot.Regs) are read as W = ⌈Counters·Size/8⌉
// little-endian words, zero-padded at the end. Body is, in order:
//
//   - the summary: ⌈M/8⌉ bytes, M = ⌈W/64⌉, whose bit j (least
//     significant first) is set when map word j has any bit set;
//   - the nonzero map words, u64 little-endian, in order: bit q of map
//     word j marks register word 64·j+q as changed;
//   - one field-mask byte per changed word, in order: bit f marks the
//     word's counter f (of 8/Size) as changed;
//   - the new value of every marked counter, in order, at Size bytes,
//     little-endian.
//
// A block names at least one counter, every map word and mask it carries
// is nonzero, and it marks nothing past the stage's end.
type DeltaBlock struct {
	Tree     int
	Stage    int
	Size     int
	Counters int
	Body     []byte
}

// DeltaFrame is a decoded collection response: either a delta against
// the baseline snapshot at BaseGen, or (Full) a complete snapshot. In both
// cases NewGen names the server-side generation of the carried state and
// StateCRC pins the CRC-32C of the complete post-apply register state.
type DeltaFrame struct {
	Full     bool
	BaseGen  uint64
	NewGen   uint64
	StateCRC uint32
	// Snap is the carried full snapshot when Full is set.
	Snap *Snapshot
	// Blocks are the changed registers when Full is not set. An empty
	// slice is the valid "nothing changed" frame.
	Blocks []DeltaBlock
}

// Clone returns a deep copy of the snapshot (geometry and registers share
// nothing with the receiver).
func (s *Snapshot) Clone() *Snapshot {
	c := *s
	c.Widths = slices.Clone(s.Widths)
	c.Regs = slices.Clone(s.Regs)
	return &c
}

// SameGeometry reports whether two snapshots describe the same sketch
// shape and counter encoding (and may therefore be diffed / delta-applied
// against each other).
func (s *Snapshot) SameGeometry(o *Snapshot) bool {
	return o != nil && s.sameLayout(o) && len(s.Regs) == len(o.Regs)
}

// sameLayout is SameGeometry without the register buffers: the geometry
// fields alone.
func (s *Snapshot) sameLayout(o *Snapshot) bool {
	return s.K == o.K && s.Trees == o.Trees && s.W1 == o.W1 &&
		s.FlagBit == o.FlagBit && slices.Equal(s.Widths, o.Widths)
}

// StateCRC is the CRC-32C over the snapshot's canonical state: a geometry
// header (k, trees, w1 as big-endian u32s, the stage count and width
// bytes, the flags byte of the snapshot encoding), then Regs in one pass.
// A delta frame pins the post-apply state with this value, so applying a
// delta to the wrong baseline cannot go unnoticed.
func (s *Snapshot) StateCRC() uint32 {
	return crc32.Update(s.geometryCRC(), castagnoli, s.Regs)
}

// geometryCRC is the CRC-32C of StateCRC's geometry header alone; the
// register bytes continue it, in one piece or stage by stage.
func (s *Snapshot) geometryCRC() uint32 {
	// The header goes through a pooled buffer: crc32.Update's escape
	// analysis would otherwise heap-allocate every buffer handed to it,
	// and StateCRC runs per poll on every served connection concurrently.
	hp := crcHeaderPool.Get().(*[crcHeaderCap]byte)
	h := binary.BigEndian.AppendUint32(hp[:0], uint32(s.K))
	h = binary.BigEndian.AppendUint32(h, uint32(s.Trees))
	h = binary.BigEndian.AppendUint32(h, uint32(s.W1))
	h = append(h, uint8(len(s.Widths)))
	for _, w := range s.Widths {
		h = append(h, uint8(w))
	}
	var flags uint8
	if s.FlagBit {
		flags |= snapshotFlagBit
	}
	crc := crc32.Update(0, castagnoli, append(h, flags))
	crcHeaderPool.Put(hp)
	return crc
}

// crcHeaderCap fits StateCRC's header for every encodable geometry
// (at most 255 stages).
const crcHeaderCap = 12 + 1 + 255 + 1

// crcHeaderPool feeds StateCRC's header buffer.
var crcHeaderPool = sync.Pool{New: func() any { return new([crcHeaderCap]byte) }}

// stageWords returns the register words of a stage of n bytes, its
// presence-map words and its summary bytes.
func stageWords(n int) (words, maps, summary int) {
	words = (n + 7) / 8
	maps = (words + 63) / 64
	return words, maps, (maps + 7) / 8
}

// fieldMarks turns every nonzero field of x into a field holding 1 and
// every zero field into 0: adding ^hi to the field's low bits carries into
// its high bit exactly when they are nonzero.
func fieldMarks(x, hi uint64, shift uint) uint64 {
	return ((((x &^ hi) + ^hi) | x) & hi) >> shift
}

// A word's changed fields are packed into its low fields, in order, by a
// network of at most three stages: marked field f has d = f − (the marked
// fields below it) unmarked fields below it, and stage i moves every
// field whose d has bit i set down by 2^i fields. The fields keep their
// order and never meet, so each stage is one AND, one XOR, one shift and
// one OR. Running the stages backwards unpacks.

// byteMoves holds, per mask of one-byte fields, the fields each of the
// three stages moves (0xff per field, at the field's place before the
// stage); halfMoves is the same for two-byte fields: four fields, two
// stages.
var byteMoves, halfMoves = func() (b [256][3]uint64, h [16][2]uint64) {
	for m := range b {
		packMoves(m, 8, b[m][:])
	}
	for m := range h {
		packMoves(m, 16, h[m][:])
	}
	return b, h
}()

// packMoves fills stages with the network that packs the fields mask m
// marks among the 64/w fields of w bits each.
func packMoves(m, w int, stages []uint64) {
	for f, below := 0, 0; f < 64/w; f++ {
		if m>>f&1 == 0 {
			continue
		}
		for i, p, d := 0, f, f-below; i < len(stages); i++ {
			if d>>i&1 == 1 {
				stages[i] |= (1<<w - 1) << (w * p)
				p -= 1 << i
			}
		}
		below++
	}
}

// byteLanes and halfLanes spread a mask over its fields: all ones in
// every marked one-byte or two-byte field.
var byteLanes, halfLanes = func() (b [256]uint64, h [16]uint64) {
	for m := range b {
		b[m] = spreadMask(m, 8)
	}
	for m := range h {
		h[m] = spreadMask(m, 16)
	}
	return b, h
}()

// spreadMask returns all ones in every w-bit field mask m marks.
func spreadMask(m, w int) uint64 {
	var lanes uint64
	for f := 0; f < 64/w; f++ {
		lanes |= uint64(m>>f&1) * (1<<w - 1) << (w * f)
	}
	return lanes
}

// diffGroups is the diff kernel: it compares stage bytes a (base) and b
// (current) over [lo, hi), lo a multiple of groupBytes, and writes every
// presence-map word of the range to maps (zero for an unchanged group),
// the mask of every changed word to masks and the changed counters'
// values to vals, both packed from their start; it returns the mask and
// value bytes written. A group of 64 words equal in both is skipped
// whole. A stage's last group, when it ends inside the group, is diffed
// zero-padded: padding never marks, but its words store a zero mask one
// past the range's last and their empty values, so masks needs 1 byte and
// vals 8 bytes of room past their last entry. A changed group that vals
// might not hold (its bytes and those 8 past the values so far) stops the
// pass, and ok is false.
func diffGroups(a, b []byte, lo, hi, size int, maps, masks, vals []byte) (nk, nv int, ok bool) {
	var pa, pb [groupBytes]byte
	for g, mi := lo, 0; g < hi; g, mi = g+groupBytes, mi+8 {
		var ga, gb *[groupBytes]byte
		if g+groupBytes <= hi {
			ga, gb = (*[groupBytes]byte)(a[g:g+groupBytes]), (*[groupBytes]byte)(b[g:g+groupBytes])
		} else {
			clear(pa[copy(pa[:], a[g:hi]):])
			clear(pb[copy(pb[:], b[g:hi]):])
			ga, gb = &pa, &pb
		}
		var mw uint64
		if *ga != *gb {
			if nv+min(groupBytes, hi-g)+8 > len(vals) {
				return nk, nv, false
			}
			switch size {
			case 1:
				mw, nk, nv = words1(ga, gb, masks, vals, nk, nv)
			case 2:
				mw, nk, nv = words2(ga, gb, masks, vals, nk, nv)
			default:
				mw, nk, nv = words4(ga, gb, masks, vals, nk, nv)
			}
		}
		binary.LittleEndian.PutUint64(maps[mi:], mw)
	}
	return nk, nv, true
}

// words1 diffs a group of one-byte counters, a (base) against b
// (current), in two passes. The first stores each word's mask at
// masks[nk], nk advancing only past a nonzero one, and sets the word's
// bit of the map word; it branches on no data, and four words equal in
// both are skipped with one test. The second visits only the changed
// words, by the map word's set bits, and stores each one's marked fields,
// packed by the byteMoves network, at vals[nv:] as one whole word, nv
// advancing by their count. It returns the group's map word and the
// advanced nk and nv.
func words1(a, b *[groupBytes]byte, masks, vals []byte, nk, nv int) (uint64, int, int) {
	le := binary.LittleEndian
	var mw uint64
	k := nk
	for q := 0; q < groupBytes; q += 32 {
		o := q & (groupBytes - 32)
		if quadEqual(a[o:o+32], b[o:o+32]) {
			continue
		}
		for i := o; i < o+32; i += 8 {
			j := i & (groupBytes - 8)
			marks := fieldMarks(le.Uint64(a[j:j+8])^le.Uint64(b[j:j+8]), 0x8080808080808080, 7)
			m := uint8(marks * 0x0102040810204080 >> 56)
			masks[nk] = m
			nz := (uint(m) + 0xff) >> 8 // 1 when m != 0
			nk += int(nz)
			mw |= uint64(nz) << (uint(j>>3) & 63)
		}
	}
	for w := mw; w != 0; w &= w - 1 {
		j := 8 * bits.TrailingZeros64(w) & (groupBytes - 8)
		m := masks[k]
		k++
		y, mv := le.Uint64(b[j:j+8])&byteLanes[m], &byteMoves[m]
		t := y & mv[0]
		y = y ^ t | t>>8
		t = y & mv[1]
		y = y ^ t | t>>16
		t = y & mv[2]
		y = y ^ t | t>>32
		le.PutUint64(vals[nv:], y)
		nv += bits.OnesCount8(m)
	}
	return mw, nk, nv
}

// words2 is words1 for two-byte counters (the halfMoves network).
func words2(a, b *[groupBytes]byte, masks, vals []byte, nk, nv int) (uint64, int, int) {
	le := binary.LittleEndian
	var mw uint64
	k := nk
	for q := 0; q < groupBytes; q += 32 {
		o := q & (groupBytes - 32)
		if quadEqual(a[o:o+32], b[o:o+32]) {
			continue
		}
		for i := o; i < o+32; i += 8 {
			j := i & (groupBytes - 8)
			marks := fieldMarks(le.Uint64(a[j:j+8])^le.Uint64(b[j:j+8]), 0x8000800080008000, 15)
			m := uint8(marks * (1<<56 | 1<<41 | 1<<26 | 1<<11) >> 56)
			masks[nk] = m
			nz := (uint(m) + 0xff) >> 8
			nk += int(nz)
			mw |= uint64(nz) << (uint(j>>3) & 63)
		}
	}
	for w := mw; w != 0; w &= w - 1 {
		j := 8 * bits.TrailingZeros64(w) & (groupBytes - 8)
		m := masks[k] & 15
		k++
		y, mv := le.Uint64(b[j:j+8])&halfLanes[m], &halfMoves[m]
		t := y & mv[0]
		y = y ^ t | t>>16
		t = y & mv[1]
		y = y ^ t | t>>32
		le.PutUint64(vals[nv:], y)
		nv += 2 * bits.OnesCount8(m)
	}
	return mw, nk, nv
}

// words4 is words1 for four-byte counters: two fields need no network,
// the high one moves down when it alone is marked.
func words4(a, b *[groupBytes]byte, masks, vals []byte, nk, nv int) (uint64, int, int) {
	le := binary.LittleEndian
	var mw uint64
	k := nk
	for q := 0; q < groupBytes; q += 32 {
		o := q & (groupBytes - 32)
		if quadEqual(a[o:o+32], b[o:o+32]) {
			continue
		}
		for i := o; i < o+32; i += 8 {
			j := i & (groupBytes - 8)
			marks := fieldMarks(le.Uint64(a[j:j+8])^le.Uint64(b[j:j+8]), 0x8000000080000000, 31)
			m := uint8((marks | marks>>31) & 3)
			masks[nk] = m
			nz := (uint(m) + 0xff) >> 8
			nk += int(nz)
			mw |= uint64(nz) << (uint(j>>3) & 63)
		}
	}
	for w := mw; w != 0; w &= w - 1 {
		j := 8 * bits.TrailingZeros64(w) & (groupBytes - 8)
		m := masks[k] & 3
		k++
		lanes := uint64(m&1)*0xffffffff | uint64(m>>1)*0xffffffff<<32
		le.PutUint64(vals[nv:], le.Uint64(b[j:j+8])&lanes>>(32*uint64(m&^(m<<1)>>1&1)))
		nv += 4 * bits.OnesCount8(m)
	}
	return mw, nk, nv
}

// quadEqual reports whether the 32 bytes of a and b are equal: one OR of
// four word XORs.
func quadEqual(a, b []byte) bool {
	le := binary.LittleEndian
	a, b = a[:32], b[:32]
	return (le.Uint64(a)^le.Uint64(b))|(le.Uint64(a[8:])^le.Uint64(b[8:]))|
		(le.Uint64(a[16:])^le.Uint64(b[16:]))|(le.Uint64(a[24:])^le.Uint64(b[24:])) == 0
}

// diffMinPart is the smallest stage range, in bytes, that a diff hands to
// a core of its own: below it a goroutine's start and wake-up cost more
// than the range's pass.
const diffMinPart = 32 << 10

// diffParts is the number of ranges a diff cuts a stage of n bytes into:
// up to four per core, so the cores claiming the ranges of every stage in
// turn finish close together, and a stage under two minimum ranges stays
// whole. Tests replace it to force cuts inside small stages.
var diffParts = func(n int) int { return max(1, min(4*runtime.GOMAXPROCS(0), n/diffMinPart)) }

// stagePair is one stage of a base and a current register state, both in
// wire order (little-endian at the stage's lane width).
type stagePair struct {
	tree, stage, size int
	a, b              []byte
}

// diffRange is one range [lo, hi) of a stage's bytes, lo a multiple of
// groupBytes, with the offsets of its slots in the output buffer, the
// room of its value slot, the mask and value bytes its pass wrote, and
// whether its values outgrew the slot.
type diffRange struct {
	pair, lo, hi      int
	maps, masks, vals int
	room              int
	nk, nv            int
	over              bool
}

// diffSlot is one stage's place in the output buffer: its slots start at
// at, and its ranges are ranges[first:last].
type diffSlot struct{ pair, at, first, last int }

// bodyDiff is one diff into an output buffer. Every stage gets slots — a
// block header, its summary, all its map words, a mask per word and room
// for values — laid out region by region (each region holds the stage's
// ranges in order), so the ranges run in parallel without knowing each
// other's sizes. pack then moves every stage's output down into its final
// place. Each piece moves to an offset at or below its slot's and no
// further than the next piece's slot, so the moves run in order in place.
type bodyDiff struct {
	buf    []byte
	pairs  []stagePair
	slots  []diffSlot
	ranges []diffRange
}

// appendDiff appends to dst the delta body — the block count, then a
// block per stage that changed — of the changes from each pair's a to its
// b, and returns the extended slice and the block count. When blocks is
// non-nil the blocks are also collected there, their bodies aliasing the
// result. The pairs must come in tree/stage order. The stage ranges run on
// up to one goroutine per core, the caller's among them, and side, when
// not nil, runs among them as one more task (the server's state CRC, which
// a paper-pair read finishes sooner beside the ranges than after them);
// the body is the same whatever the cut.
//
// Unbounded, a range's value slot holds every value it could write. When
// bounded, it holds half the range's bytes (or a whole group, or the whole
// range when that is less), which keeps the slots near two thirds of the
// register bytes; a range whose values may outgrow its slot (checked a
// group at a time) fails the diff, and appendDiff returns dst, 0 and
// false.
func (d *bodyDiff) appendDiff(dst []byte, pairs []stagePair, blocks *[]DeltaBlock, bounded bool, side func()) ([]byte, int, bool) {
	d.pairs, d.slots, d.ranges = pairs, d.slots[:0], d.ranges[:0]
	start := len(dst)
	off, total, cut := start+4, 0, 1
	for pi, p := range pairs {
		n := len(p.a)
		words, maps, sum := stageWords(n)
		groups := maps
		parts := min(diffParts(n), groups)
		total, cut = total+n, max(cut, parts)
		slot := diffSlot{pair: pi, at: off, first: len(d.ranges)}
		mapsAt := off + deltaBlockHeaderLen + sum
		masksAt := mapsAt + 8*maps
		valsAt := masksAt + words + 1
		for j := 0; j < parts; j++ {
			g0, g1 := j*groups/parts, (j+1)*groups/parts
			lo, hi := g0*groupBytes, min(g1*groupBytes, n)
			room := hi - lo
			if bounded {
				room = max(room/2, min(room, groupBytes))
			}
			d.ranges = append(d.ranges, diffRange{pair: pi, lo: lo, hi: hi,
				maps: mapsAt + 8*g0, masks: masksAt + lo/8, vals: valsAt, room: room + 8})
			valsAt += room + 8
		}
		slot.last = len(d.ranges)
		d.slots = append(d.slots, slot)
		off = valsAt
	}
	if cap(dst) < off {
		// Exactly the slots: the buffer is kept across reads, and
		// append's growth would keep a quarter more.
		dst = append(make([]byte, 0, off), dst...)
	}
	d.buf = dst[:off]
	tasks, run := len(d.ranges), d.run
	if side != nil {
		tasks++
		run = func(i int) {
			if i == 0 {
				side()
				return
			}
			d.run(i - 1)
		}
	}
	// As many goroutines as the bytes keep busy, or as a stage was cut
	// into: a small diff stays on the caller's.
	parallel(min(runtime.GOMAXPROCS(0), tasks, max(cut, total/diffMinPart)), tasks, run)
	for _, r := range d.ranges {
		if r.over {
			dst, d.buf, d.pairs = d.buf[:start], nil, nil
			return dst, 0, false
		}
	}
	out, n := d.pack(start+4, blocks)
	binary.BigEndian.PutUint32(d.buf[start:], uint32(n))
	dst, d.buf, d.pairs = d.buf[:out], nil, nil
	return dst, n, true
}

// run is the kernel pass over range i.
func (d *bodyDiff) run(i int) {
	r := &d.ranges[i]
	p := &d.pairs[r.pair]
	groups := (r.hi - r.lo + groupBytes - 1) / groupBytes
	var ok bool
	r.nk, r.nv, ok = diffGroups(p.a, p.b, r.lo, r.hi, p.size,
		d.buf[r.maps:r.maps+8*groups], d.buf[r.masks:r.masks+(r.hi-r.lo+7)/8+1],
		d.buf[r.vals:r.vals+r.room])
	r.over = !ok
}

// pack moves every changed stage's output from its slots to out on,
// behind its block header and summary, and returns the body's end and the
// block count.
func (d *bodyDiff) pack(out int, blocks *[]DeltaBlock) (int, int) {
	le, buf, n := binary.LittleEndian, d.buf, 0
	for _, s := range d.slots {
		p := &d.pairs[s.pair]
		_, _, sum := stageWords(len(p.a))
		sumAt := out + deltaBlockHeaderLen
		w := sumAt + sum
		clear(buf[sumAt:w])
		for _, r := range d.ranges[s.first:s.last] {
			for g, at := r.lo/groupBytes, r.maps; g*groupBytes < r.hi; g, at = g+1, at+8 {
				if mw := le.Uint64(buf[at:]); mw != 0 {
					buf[sumAt+g/8] |= 1 << (g % 8)
					le.PutUint64(buf[w:], mw)
					w += 8
				}
			}
		}
		if w == sumAt+sum {
			continue // the stage did not change
		}
		for _, r := range d.ranges[s.first:s.last] {
			w += copy(buf[w:], buf[r.masks:r.masks+r.nk])
		}
		for _, r := range d.ranges[s.first:s.last] {
			w += copy(buf[w:], buf[r.vals:r.vals+r.nv])
		}
		counters := len(p.a) / p.size
		buf[out], buf[out+1], buf[out+2], buf[out+3] = uint8(p.tree), uint8(p.stage), uint8(p.size), 0
		binary.BigEndian.PutUint32(buf[out+4:], uint32(counters))
		if blocks != nil {
			*blocks = append(*blocks, DeltaBlock{Tree: p.tree, Stage: p.stage, Size: p.size,
				Counters: counters, Body: buf[sumAt:w:w]})
		}
		out, n = w, n+1
	}
	return out, n
}

// parallel runs fn(i) for every i < n on up to workers goroutines, the
// caller's among them, each claiming the next i in turn; one worker runs
// them in order on the caller's goroutine.
func parallel(workers, n int, fn func(int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	claim := func() {
		defer wg.Done()
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	for w := 1; w < workers; w++ {
		go claim()
	}
	claim()
	wg.Wait()
}

// snapshotPairs returns the stage pairs of two snapshots of one geometry.
func snapshotPairs(base, cur *Snapshot) []stagePair {
	pairs := make([]stagePair, 0, base.Trees*len(base.Widths))
	base.eachStage(func(t, l int, sp stageSpan) {
		pairs = append(pairs, stagePair{tree: t, stage: l, size: sp.size, a: sp.bytes(base.Regs), b: sp.bytes(cur.Regs)})
	})
	return pairs
}

// DiffSnapshots computes the registers of cur that differ from base, as
// one block per changed stage in tree/stage order. ok is false when the
// snapshots do not share a geometry (no delta exists between them).
//
// It runs the collection server's diff kernel (see bodyDiff) into a
// fresh buffer, which the blocks' bodies alias.
func DiffSnapshots(base, cur *Snapshot) (blocks []DeltaBlock, ok bool) {
	if base == nil || cur == nil || !base.SameGeometry(cur) || len(base.Regs) != base.regsLen() {
		return nil, false
	}
	var d bodyDiff
	if _, n, _ := d.appendDiff(nil, snapshotPairs(base, cur), &blocks, false, nil); n == 0 {
		return nil, true
	}
	return blocks, true
}

// blockLayout locates the regions of a block body: its map words start
// at maps, its masks at masks, its values at vals, and the body ends at
// end.
type blockLayout struct{ maps, masks, vals, end int }

// layoutBody measures the block body at the start of p for a stage of n
// bytes of size-byte counters: it counts the summary's bits, the map
// words' bits and the masks' bits, and checks that p holds them, that no
// map word is zero and that the summary marks no map word past the
// stage's end. Mask contents are checked where they are walked.
func layoutBody(p []byte, n, size int) (blockLayout, error) {
	_, maps, sum := stageWords(n)
	if len(p) < sum {
		return blockLayout{}, fmt.Errorf("collect: delta block summary truncated")
	}
	if rem := maps % 8; rem != 0 && p[sum-1]>>rem != 0 {
		return blockLayout{}, fmt.Errorf("collect: delta block summary marks map words past the stage")
	}
	nm := 0
	for _, c := range p[:sum] {
		nm += bits.OnesCount8(c)
	}
	if nm == 0 {
		return blockLayout{}, fmt.Errorf("collect: delta block is empty")
	}
	lay := blockLayout{maps: sum, masks: sum + 8*nm}
	if len(p) < lay.masks {
		return blockLayout{}, fmt.Errorf("collect: delta block map words truncated")
	}
	nk := 0
	for i := lay.maps; i < lay.masks; i += 8 {
		mw := binary.LittleEndian.Uint64(p[i:])
		if mw == 0 {
			return blockLayout{}, fmt.Errorf("collect: delta block carries a zero map word")
		}
		nk += bits.OnesCount64(mw)
	}
	lay.vals = lay.masks + nk
	if len(p) < lay.vals {
		return blockLayout{}, fmt.Errorf("collect: delta block masks truncated")
	}
	nv, masks := 0, p[lay.masks:lay.vals]
	for ; len(masks) >= 8; masks = masks[8:] {
		nv += bits.OnesCount64(binary.LittleEndian.Uint64(masks))
	}
	for _, c := range masks {
		nv += bits.OnesCount8(c)
	}
	lay.end = lay.vals + nv*size
	if len(p) < lay.end {
		return blockLayout{}, fmt.Errorf("collect: delta block values truncated")
	}
	return lay, nil
}

// checkBlockStage reports why a block's value width and counter count
// describe no stage a snapshot can hold, or nil.
func checkBlockStage(size, counters int) error {
	if size != 1 && size != 2 && size != 4 {
		return fmt.Errorf("collect: delta block values of %d bytes", size)
	}
	if counters <= 0 || counters > maxSaneBytes/size {
		return fmt.Errorf("collect: delta block stage of %d counters", counters)
	}
	return nil
}

// layout measures the block's body, which must be exactly one encoded
// block body for its stage.
func (b *DeltaBlock) layout() (blockLayout, error) {
	if err := checkBlockStage(b.Size, b.Counters); err != nil {
		return blockLayout{}, err
	}
	lay, err := layoutBody(b.Body, b.Counters*b.Size, b.Size)
	if err == nil && lay.end != len(b.Body) {
		err = fmt.Errorf("collect: %d trailing bytes after delta block", len(b.Body)-lay.end)
	}
	return lay, err
}

// walk visits every counter the block marks, in order, checking each mask
// against the stage: a mask must be nonzero and mark only counters before
// the stage's end. With stage non-nil (the stage's bytes) it writes each
// value there; otherwise it passes index and value to fn. A walk that
// fails has written the counters before the bad mask. A map word whose
// words all lie inside the stage, with a whole group's values of bytes
// left in the body, is scattered word by word (scatter1); the rest go
// counter by counter.
func (b *DeltaBlock) walk(lay blockLayout, stage []byte, fn func(i int, v uint32)) error {
	body, size, n := b.Body, b.Size, b.Counters*b.Size
	fpw := uint(8 / size)
	_, _, sum := stageWords(n)
	mi, ki, vi := lay.maps, lay.masks, lay.vals
	for sb, s := range body[:sum] {
		for ; s != 0; s &= s - 1 {
			g := 8*sb + bits.TrailingZeros8(s)
			mw := binary.LittleEndian.Uint64(body[mi:])
			mi += 8
			if base := groupBytes * g; stage != nil && base+groupBytes <= n && len(body)-vi >= groupBytes+8 {
				ok := false
				switch size {
				case 1:
					ki, vi, ok = scatter1((*[groupBytes]byte)(stage[base:base+groupBytes]), mw, body, ki, vi)
				case 2:
					ki, vi, ok = scatter2((*[groupBytes]byte)(stage[base:base+groupBytes]), mw, body, ki, vi)
				default:
					ki, vi, ok = scatter4((*[groupBytes]byte)(stage[base:base+groupBytes]), mw, body, ki, vi)
				}
				if !ok {
					return fmt.Errorf("collect: delta block carries an invalid mask for map word %d", g)
				}
				continue
			}
			for ; mw != 0; mw &= mw - 1 {
				off := 8 * (64*g + bits.TrailingZeros64(mw))
				m := uint(body[ki])
				ki++
				if off >= n {
					return fmt.Errorf("collect: delta block marks word %d of a %dB stage", off/8, n)
				}
				if fields := min(fpw, uint((n-off)/size)); m == 0 || m>>fields != 0 {
					return fmt.Errorf("collect: delta block mask 0x%02x invalid for word %d", m, off/8)
				}
				for ; m != 0; m &= m - 1 {
					at := off + size*bits.TrailingZeros(m)
					if stage != nil {
						copy(stage[at:at+size], body[vi:vi+size])
					} else {
						var v uint32
						for j := size - 1; j >= 0; j-- {
							v = v<<8 | uint32(body[vi+j])
						}
						fn(at/size, v)
					}
					vi += size
				}
			}
		}
	}
	return nil
}

// scatter1 writes the words map word mw marks into group, a group of
// one-byte counters: each word's mask from body[ki], its packed values
// from body[vi:], unpacked over the marked fields in one load and one
// store of the word. body holds at least 8 bytes past the group's values.
// It returns the advanced ki and vi, and false at a zero mask.
func scatter1(group *[groupBytes]byte, mw uint64, body []byte, ki, vi int) (int, int, bool) {
	le := binary.LittleEndian
	for ; mw != 0; mw &= mw - 1 {
		off := 8 * bits.TrailingZeros64(mw) & (groupBytes - 8)
		m := body[ki]
		ki++
		u := &byteUnpack[m]
		if u[0] == 0 {
			return ki, vi, false
		}
		v := le.Uint64(body[vi:]) & u[0]
		t := v & u[1]
		v = v ^ t | t<<32
		t = v & u[2]
		v = v ^ t | t<<16
		t = v & u[3]
		v = v ^ t | t<<8
		le.PutUint64(group[off:off+8], le.Uint64(group[off:off+8])&^u[4]|v)
		vi += bits.OnesCount8(m)
	}
	return ki, vi, true
}

// byteUnpack holds, per mask of one-byte fields, what scatter1 needs to
// unpack a word: the packed fields (0 for the empty mask), the three
// byteMoves stages backwards at their packed places, and byteLanes.
var byteUnpack = func() (t [256][5]uint64) {
	for m := 1; m < 256; m++ {
		mv := &byteMoves[m]
		t[m] = [5]uint64{^uint64(0) >> (64 - 8*bits.OnesCount8(uint8(m))), mv[2] >> 32, mv[1] >> 16, mv[0] >> 8, byteLanes[m]}
	}
	return t
}()

// scatter2 is scatter1 for two-byte counters; a mask past the word's
// four fields is invalid too.
func scatter2(group *[groupBytes]byte, mw uint64, body []byte, ki, vi int) (int, int, bool) {
	le := binary.LittleEndian
	for ; mw != 0; mw &= mw - 1 {
		off := 8 * bits.TrailingZeros64(mw) & (groupBytes - 8)
		m := body[ki]
		ki++
		c := bits.OnesCount8(m)
		if c == 0 || m > 15 {
			return ki, vi, false
		}
		v, mv := le.Uint64(body[vi:])&(^uint64(0)>>(64-16*uint(c))), &halfMoves[m&15]
		t := v & (mv[1] >> 32)
		v = v ^ t | t<<32
		t = v & (mv[0] >> 16)
		v = v ^ t | t<<16
		le.PutUint64(group[off:off+8], le.Uint64(group[off:off+8])&^halfLanes[m&15]|v)
		vi += 2 * c
	}
	return ki, vi, true
}

// scatter4 is scatter1 for four-byte counters; a mask past the word's two
// fields is invalid too.
func scatter4(group *[groupBytes]byte, mw uint64, body []byte, ki, vi int) (int, int, bool) {
	le := binary.LittleEndian
	for ; mw != 0; mw &= mw - 1 {
		off := 8 * bits.TrailingZeros64(mw) & (groupBytes - 8)
		m := body[ki]
		ki++
		if m == 0 || m > 3 {
			return ki, vi, false
		}
		c := bits.OnesCount8(m)
		v := le.Uint64(body[vi:]) & (^uint64(0) >> (64 - 32*uint(c)))
		v <<= 32 * uint64(m&^(m<<1)>>1&1)
		lanes := uint64(m&1)*0xffffffff | uint64(m>>1)*0xffffffff<<32
		le.PutUint64(group[off:off+8], le.Uint64(group[off:off+8])&^lanes|v)
		vi += 4 * c
	}
	return ki, vi, true
}

// Each calls fn with the index and new value of every counter the block
// marks, in index order. It reports an error, having called fn for the
// counters before the fault, when the body is not a well-formed encoding
// for a stage of the block's Counters and Size.
func (b *DeltaBlock) Each(fn func(index int, value uint32)) error {
	lay, err := b.layout()
	if err != nil {
		return err
	}
	return b.walk(lay, nil, fn)
}

// ApplyDelta returns a new snapshot: base with every block's registers
// overwritten — one copy of base's registers, then the scatter of
// applyBlocks. The base is not modified. Any block naming a tree or stage
// outside the base's geometry, a stage of another size, or a counter past
// its stage's end, is an error — the delta was diffed against a different
// baseline and must not be merged.
func ApplyDelta(base *Snapshot, blocks []DeltaBlock) (*Snapshot, error) {
	out := base.Clone()
	if err := out.applyBlocks(blocks); err != nil {
		return nil, err
	}
	return out, nil
}

// applyBlocks overwrites s's registers with every block's, in place (see
// ApplyDelta for what is an error). A failed apply leaves the blocks
// before the bad entry scattered: a caller applying to a snapshot it keeps
// must discard it on error.
func (s *Snapshot) applyBlocks(blocks []DeltaBlock) error {
	if want := s.regsLen(); len(s.Regs) != want {
		return fmt.Errorf("collect: delta base holds %dB of registers, geometry implies %d", len(s.Regs), want)
	}
	for bi := range blocks {
		b := &blocks[bi]
		lay, err := b.layout()
		if err == nil {
			err = s.applyBlock(b, lay)
		}
		if err != nil {
			return fmt.Errorf("collect: delta block %d: %w", bi, err)
		}
	}
	return nil
}

// applyBlock scatters one measured block into s's registers after
// checking that it names a stage of s's geometry, of its size.
func (s *Snapshot) applyBlock(b *DeltaBlock, lay blockLayout) error {
	if b.Tree < 0 || b.Tree >= s.Trees || b.Stage < 0 || b.Stage >= len(s.Widths) {
		return fmt.Errorf("collect: delta block names tree %d stage %d of %d×%d", b.Tree, b.Stage, s.Trees, len(s.Widths))
	}
	sp := s.span(b.Tree, b.Stage)
	if b.Size != sp.size || b.Counters != sp.n {
		return fmt.Errorf("collect: delta block for a stage of %d×%dB counters, stage holds %d×%dB",
			b.Counters, b.Size, sp.n, sp.size)
	}
	return b.walk(lay, sp.bytes(s.Regs), nil)
}

// applyBody scatters the blocks of a delta frame's body (as parseFrame
// returned it) into s's registers in place, reading them where they lie.
// A failed apply leaves the blocks before the bad one scattered.
func (s *Snapshot) applyBody(body []byte) error {
	if want := s.regsLen(); len(s.Regs) != want {
		return fmt.Errorf("collect: delta base holds %dB of registers, geometry implies %d", len(s.Regs), want)
	}
	n, p := binary.BigEndian.Uint32(body), body[4:]
	for bi := uint32(0); bi < n; bi++ {
		b, lay, rest, err := nextBlock(p)
		if err == nil {
			err = s.applyBlock(&b, lay)
		}
		if err != nil {
			return fmt.Errorf("collect: delta block %d: %w", bi, err)
		}
		p = rest
	}
	if len(p) != 0 {
		return fmt.Errorf("collect: %d trailing bytes after delta blocks", len(p))
	}
	return nil
}

// appendFrameHeader appends an FCMD header whose body length finishFrame
// patches.
func appendFrameHeader(dst []byte, full bool, baseGen, newGen uint64, stateCRC uint32) []byte {
	flags := uint8(0)
	if full {
		flags = deltaFlagFull
	}
	dst = binary.BigEndian.AppendUint32(dst, deltaMagic)
	dst = append(dst, deltaVersion, flags, 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, baseGen)
	dst = binary.BigEndian.AppendUint64(dst, newGen)
	dst = binary.BigEndian.AppendUint32(dst, stateCRC)
	return binary.BigEndian.AppendUint32(dst, 0)
}

// finishFrame patches the body length of the frame that starts at
// dst[start] and appends its CRC-32C trailer.
func finishFrame(dst []byte, start int) []byte {
	binary.BigEndian.PutUint32(dst[start+28:], uint32(len(dst)-start-deltaHeaderLen))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// fullFrameLen is the encoded size of a full frame of geometry g.
func fullFrameLen(g *Snapshot, regs int) int {
	return deltaHeaderLen + fullGeometryLen + len(g.Widths) + regs + deltaTrailerLen
}

// appendFullBody appends a full body: g's geometry, then the registers,
// stage after stage in Regs order.
func appendFullBody(dst []byte, g *Snapshot, stages [][]byte) []byte {
	var flags uint8
	if g.FlagBit {
		flags |= snapshotFlagBit
	}
	dst = append(dst, uint8(g.Trees), uint8(len(g.Widths)), flags, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(g.K))
	dst = binary.BigEndian.AppendUint32(dst, uint32(g.W1))
	for _, b := range g.Widths {
		dst = append(dst, uint8(b))
	}
	for _, st := range stages {
		dst = append(dst, st...)
	}
	return dst
}

// setFullBody decodes a full body into s, reusing its buffers: the
// geometry, checked as a snapshot's, then the registers it implies.
func (s *Snapshot) setFullBody(body []byte) error {
	if len(body) < fullGeometryLen {
		return fmt.Errorf("collect: full body geometry of %dB truncated", len(body))
	}
	stages, flags := int(body[1]), body[2]
	if flags&^uint8(snapshotFlagBit) != 0 || body[3] != 0 {
		return fmt.Errorf("collect: unknown full body flags 0x%02x/0x%02x", flags, body[3])
	}
	if len(body) < fullGeometryLen+stages {
		return fmt.Errorf("collect: full body widths truncated")
	}
	s.Trees, s.FlagBit = int(body[0]), flags&snapshotFlagBit != 0
	s.K = int(binary.BigEndian.Uint32(body[4:]))
	s.W1 = int(binary.BigEndian.Uint32(body[8:]))
	s.Widths = s.Widths[:0]
	for _, b := range body[fullGeometryLen : fullGeometryLen+stages] {
		s.Widths = append(s.Widths, int(b))
	}
	if err := s.checkGeometry(); err != nil {
		return err
	}
	regs := body[fullGeometryLen+stages:]
	if n := s.regsLen(); len(regs) != n {
		return fmt.Errorf("collect: full body carries %dB of registers, geometry holds %d", len(regs), n)
	}
	s.Regs = append(s.Regs[:0], regs...)
	return nil
}

// Encode serializes the frame as FCMD version 5.
//
// Layout (integers big-endian unless noted):
//
//	u32 magic "FCMD", u8 version(5), u8 flags (bit 0: full), u16 pad,
//	u64 baseGen, u64 newGen, u32 stateCRC, u32 bodyLen,
//	body, full: u8 trees, u8 stages, u8 flags (bit 0: flag-bit counter
//	  encoding), u8 pad, u32 k, u32 w1, stages × u8 width-bits, then the
//	  registers (Snapshot.Regs verbatim, little-endian at lane width);
//	body, delta: u32 blockCount, then per block u8 tree, u8 stage, u8
//	  value bytes (1, 2 or 4), u8 pad, u32 the stage's counters, and the
//	  block body (see DeltaBlock),
//	u32 crc32c over everything above
func (f *DeltaFrame) Encode() ([]byte, error) {
	return f.AppendEncode(nil)
}

// AppendEncode serializes the frame (see Encode for the layout),
// appending to dst and returning the extended slice. The bytes produced
// are identical to Encode's; only the destination differs.
func (f *DeltaFrame) AppendEncode(dst []byte) ([]byte, error) {
	start := len(dst)
	if f.Full {
		s := f.Snap
		if s == nil {
			return nil, fmt.Errorf("collect: full delta frame without snapshot")
		}
		if err := s.checkGeometry(); err != nil {
			return nil, err
		}
		if want := s.regsLen(); len(s.Regs) != want {
			return nil, fmt.Errorf("collect: snapshot holds %dB of registers, geometry implies %d", len(s.Regs), want)
		}
		dst = slices.Grow(dst, fullFrameLen(s, len(s.Regs)))
		dst = appendFrameHeader(dst, true, f.BaseGen, f.NewGen, f.StateCRC)
		dst = appendFullBody(dst, s, [][]byte{s.Regs})
		return finishFrame(dst, start), nil
	}
	n := deltaHeaderLen + 4 + deltaTrailerLen
	for i := range f.Blocks {
		b := &f.Blocks[i]
		if b.Tree < 0 || b.Tree > 255 || b.Stage < 0 || b.Stage > 255 {
			return nil, fmt.Errorf("collect: delta block tree/stage out of range: %d/%d", b.Tree, b.Stage)
		}
		if _, err := b.layout(); err != nil {
			return nil, err
		}
		n += deltaBlockHeaderLen + len(b.Body)
	}
	dst = slices.Grow(dst, n)
	dst = appendFrameHeader(dst, false, f.BaseGen, f.NewGen, f.StateCRC)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Blocks)))
	for i := range f.Blocks {
		b := &f.Blocks[i]
		dst = append(dst, uint8(b.Tree), uint8(b.Stage), uint8(b.Size), 0)
		dst = binary.BigEndian.AppendUint32(dst, uint32(b.Counters))
		dst = append(dst, b.Body...)
	}
	return finishFrame(dst, start), nil
}

// frameHeader is the verified fixed header of an FCMD frame.
type frameHeader struct {
	full            bool
	baseGen, newGen uint64
	stateCRC        uint32
}

// parseFrame verifies an encoded frame's CRC before trusting any field,
// then its header, and returns the header and the body. Only FCMD
// version 5 parses: both ends of a collection link move versions
// together, so a mismatch is a decode error, never a guess.
func parseFrame(data []byte) (frameHeader, []byte, error) {
	var h frameHeader
	if len(data) < deltaHeaderLen+deltaTrailerLen {
		return h, nil, fmt.Errorf("collect: delta frame of %dB too short", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if want, got := binary.BigEndian.Uint32(trailer), crc32.Checksum(body, castagnoli); want != got {
		return h, nil, fmt.Errorf("collect: delta frame checksum mismatch: got 0x%08x want 0x%08x", got, want)
	}
	if m := binary.BigEndian.Uint32(data[0:]); m != deltaMagic {
		return h, nil, fmt.Errorf("collect: bad delta magic 0x%08x", m)
	}
	if v := data[4]; v != deltaVersion {
		return h, nil, fmt.Errorf("collect: unsupported delta version %d", v)
	}
	flags := data[5]
	if flags&^uint8(deltaFlagFull) != 0 {
		return h, nil, fmt.Errorf("collect: unknown delta flags 0x%02x", flags)
	}
	if pad := binary.BigEndian.Uint16(data[6:]); pad != 0 {
		return h, nil, fmt.Errorf("collect: delta frame padding 0x%04x must be zero", pad)
	}
	h = frameHeader{
		full:     flags&deltaFlagFull != 0,
		baseGen:  binary.BigEndian.Uint64(data[8:]),
		newGen:   binary.BigEndian.Uint64(data[16:]),
		stateCRC: binary.BigEndian.Uint32(data[24:]),
	}
	payload := data[deltaHeaderLen : len(data)-4]
	if bodyLen := binary.BigEndian.Uint32(data[28:]); int64(bodyLen) != int64(len(payload)) {
		return h, nil, fmt.Errorf("collect: delta body length %d, frame carries %d", bodyLen, len(payload))
	}
	if h.full && h.baseGen != 0 {
		return h, nil, fmt.Errorf("collect: full frame carries base generation %d", h.baseGen)
	}
	if !h.full {
		if len(payload) < 4 {
			return h, nil, fmt.Errorf("collect: delta block count truncated")
		}
		// Every block costs at least minBlockLen bytes, so the body
		// bounds the count before anything proportional to it.
		if n := binary.BigEndian.Uint32(payload); int64(n)*minBlockLen > int64(len(payload)-4) {
			return h, nil, fmt.Errorf("collect: %d delta blocks cannot fit %d body bytes", n, len(payload)-4)
		}
	}
	return h, payload, nil
}

// nextBlock parses the block at the start of p and returns it, its body
// aliasing p, its layout and the bytes after it.
func nextBlock(p []byte) (DeltaBlock, blockLayout, []byte, error) {
	if len(p) < deltaBlockHeaderLen {
		return DeltaBlock{}, blockLayout{}, nil, fmt.Errorf("collect: delta block header truncated")
	}
	b := DeltaBlock{Tree: int(p[0]), Stage: int(p[1]), Size: int(p[2]), Counters: int(binary.BigEndian.Uint32(p[4:]))}
	if p[3] != 0 {
		return b, blockLayout{}, nil, fmt.Errorf("collect: delta block nonzero padding")
	}
	if err := checkBlockStage(b.Size, b.Counters); err != nil {
		return b, blockLayout{}, nil, err
	}
	p = p[deltaBlockHeaderLen:]
	lay, err := layoutBody(p, b.Counters*b.Size, b.Size)
	if err != nil {
		return b, lay, nil, err
	}
	b.Body = p[:lay.end:lay.end]
	return b, lay, p[lay.end:], nil
}

// DecodeDeltaFrame parses an encoded frame, verifying the frame CRC
// before trusting any field. A full frame's snapshot is decoded and
// checked against the frame's StateCRC, so a decoded full frame is always
// internally consistent. A delta frame's blocks are measured, not
// applied: their bodies alias data, and ApplyDelta checks them against a
// baseline.
func DecodeDeltaFrame(data []byte) (*DeltaFrame, error) {
	h, body, err := parseFrame(data)
	if err != nil {
		return nil, err
	}
	f := &DeltaFrame{Full: h.full, BaseGen: h.baseGen, NewGen: h.newGen, StateCRC: h.stateCRC}
	if f.Full {
		snap := &Snapshot{}
		if err := snap.setFullBody(body); err != nil {
			return nil, err
		}
		if got := snap.StateCRC(); got != f.StateCRC {
			return nil, fmt.Errorf("collect: full frame state CRC 0x%08x does not match payload 0x%08x", f.StateCRC, got)
		}
		f.Snap = snap
		return f, nil
	}
	nBlocks, p := binary.BigEndian.Uint32(body), body[4:]
	f.Blocks = make([]DeltaBlock, 0, nBlocks)
	for bi := uint32(0); bi < nBlocks; bi++ {
		b, _, rest, err := nextBlock(p)
		if err != nil {
			return nil, fmt.Errorf("collect: delta block %d: %w", bi, err)
		}
		f.Blocks, p = append(f.Blocks, b), rest
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("collect: %d trailing bytes after delta blocks", len(p))
	}
	return f, nil
}

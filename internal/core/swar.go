// Word-wide (SWAR) fold kernels for the merge plane. The typed counter
// lanes store a stage contiguously at its native width — []uint8,
// []uint16 or []uint32 — so one 64-bit load carries 8, 4 or 2 counters,
// and merging two sketches is mostly a vector add. The kernel reads a
// stage four words (32 bytes) of each source at a time and decides, from
// the register contents alone, how little work each block needs:
//
//   - a block with no pending carry whose four source words are zero is
//     skipped: merging an empty node is the identity;
//   - a carry-free block passes the prescreen when every field of a|b
//     lies below p, the largest power of two with 2p−2 ≤ the stage's
//     counting capacity. No field sum can then reach the overflow marker
//     (or the root's saturation point), and no source field can be the
//     marker, so four plain 64-bit adds are exact;
//   - otherwise each word on its own: with no carry, a zero source word is
//     skipped, a zero destination word takes the source word, and any
//     other pair goes through swarFold; a word with pending carry, or one
//     swarFold rejects, takes the scalar walk (mergeSpanScalar) for
//     exactly its counters, as does the sub-word tail of a stage.
//
// Every path computes what a register-at-a-time merge computes, so the
// result is bit-identical by construction (and the difftest harness
// re-proves it on every geometry).
//
// swarFold uses two classic SWAR identities over a word with the
// per-field high bits masked by hi:
//
//	sum  = ((a &^ hi) + (b &^ hi)) ^ ((a ^ b) & hi)      field-wise a+b
//	cout = ((a & b) | ((a | b) &^ sum)) & hi             per-field carry-out
//
// and detects "any field ≥ mark" by adding the bias (fieldCap − mark) to
// every field of the sum and watching for carry-out: sum + bias overflows
// a field exactly when sum ≥ mark. Because stage values never exceed the
// overflow marker, a field sum below the mark also proves neither source
// field was the mark — one test covers both conditions.
//
// Promotions into the parent stage go to a carryBuf: the excess per
// parent node plus a presence bitmap with one bit per parent node, so the
// parent stage tests a whole block for pending carry with one shift and
// mask instead of reading the block's carry entries.
package core

import (
	"encoding/binary"
	"math/bits"

	"github.com/fcmsketch/fcm/internal/sketch"
)

// blockBytes is the span the merge kernel screens at once: four 64-bit
// words of each source.
const blockBytes = 32

// swarFold adds a and b field-wise under the high-bit mask hi and reports
// whether the whole word took the fast path: no field carried out and no
// field sum reached the stage mark (encoded in bias, see the package
// comment). When ok is false the returned sum must be discarded.
func swarFold(a, b, hi, bias uint64) (sum uint64, ok bool) {
	low := (a &^ hi) + (b &^ hi)
	sum = low ^ ((a ^ b) & hi)
	cout := ((a & b) | ((a | b) &^ sum)) & hi
	low2 := (sum &^ hi) + (bias &^ hi)
	s2 := low2 ^ ((sum ^ bias) & hi)
	over := ((sum & bias) | ((sum | bias) &^ s2)) & hi
	return sum, cout|over == 0
}

// carryBuf holds the promotions one stage's merge sends to its parent:
// val[p] is the excess for parent node p, and bit p of bits is set exactly
// when val[p] is nonzero. Both are allocated on the first promotion and
// sized for that parent stage (grown when a larger one needs more), so a
// merge that never promotes touches no carry memory. The consuming stage
// leaves the buffer clean: mergeSpanScalar zeroes each entry it reads
// (every set bit sends its word through the scalar walk), and Merge
// clears the bitmap afterwards.
type carryBuf struct {
	val  []uint64
	bits []uint64
}

// carrySpares recycles Merge's carry buffers across merges and sketches:
// a merge takes a pair (alternated by level parity, so a stage never reads
// the buffer it writes) or makes one, and hands it back when done. At most
// cap(carrySpares) pairs stay cached, so a merged sketch — a bucket filed
// in a window ring — retains no scratch of its own, while steady-state
// merges allocate nothing. (A sync.Pool would also drop its pairs at
// every GC and, under the race detector, at random.)
var carrySpares = make(chan *[2]carryBuf, 4)

// takeCarry returns a cached pair of carry buffers, or a new one.
func takeCarry() *[2]carryBuf {
	select {
	case c := <-carrySpares:
		return c
	default:
		return new([2]carryBuf)
	}
}

// returnCarry caches a clean pair for the next merge, or drops it when
// enough are cached.
func returnCarry(c *[2]carryBuf) {
	select {
	case carrySpares <- c:
	default:
	}
}

// grow sizes the buffer for size parent nodes when it is smaller.
func (c *carryBuf) grow(size int) {
	if len(c.val) < size {
		c.val = make([]uint64, size)
		c.bits = make([]uint64, (size+63)/64)
	}
}

// add records n excess packets for parent node p; size is the node count
// to allocate for when the buffer is smaller.
func (c *carryBuf) add(p int, n uint64, size int) {
	c.grow(size)
	c.val[p] += n
	c.bits[p>>6] |= 1 << (p & 63)
}

// stageFold is the merge of stage l of tree b into tree a: the stage's
// raw lane bytes on both sides (native order), the lane width's masks and
// the carry buffers on either side (in nil: no carry pending; out nil:
// the root).
type stageFold struct {
	s        *Sketch
	a, b     *tree
	l        int
	ab, bb   []byte
	epw      int    // counters per 64-bit word
	hi, bias uint64 // swarFold masks
	screen   uint64 // prescreen: a|b clear of it makes the plain add exact
	in, out  *carryBuf
}

// mergeStage folds nodes [lo, hi) of stage l of tree b into tree a and
// reports whether it promoted any excess into out. lo must sit on a
// blockBytes boundary and on a carry-bitmap word (a multiple of 64 nodes)
// unless it is 0; hi must too unless it is the stage's end.
func (s *Sketch) mergeStage(a, b *tree, l, lo, hi int, in, out *carryBuf) bool {
	sa, sb := a.views[l], b.views[l]
	f := stageFold{s: s, a: a, b: b, l: l, in: in, out: out}
	var fieldBits uint
	switch sa.kind {
	case laneU8:
		f.ab, f.bb = a.lane8[sa.base:sa.base+sa.n], b.lane8[sb.base:sb.base+sb.n]
		fieldBits = 8
	case laneU16:
		f.ab = sketch.BytesU16(a.lane16[sa.base : sa.base+sa.n])
		f.bb = sketch.BytesU16(b.lane16[sb.base : sb.base+sb.n])
		fieldBits = 16
	default:
		f.ab = sketch.BytesU32(a.lane32[sa.base : sa.base+sa.n])
		f.bb = sketch.BytesU32(b.lane32[sb.base : sb.base+sb.n])
		fieldBits = 32
	}
	field := uint64(1)<<fieldBits - 1
	rep := ^uint64(0) / field // 1 in the low bit of every field
	mark, max := uint64(a.mark[l]), uint64(a.max[l])
	f.epw = 64 / int(fieldBits)
	f.hi = rep << (fieldBits - 1)
	f.bias = (field + 1 - mark) * rep
	// p is the largest power of two with 2p−2 ≤ max: fields below it sum
	// to at most max. Derived from max, not the lane width, because the
	// flag-bit encoding spends the top bit on the marker.
	p := uint64(1) << (bits.Len64((max+2)/2) - 1)
	f.screen = (field &^ (p - 1)) * rep
	return f.run(lo, hi)
}

// run is the block loop described in the package comment, over the
// stage's nodes [lo, hi).
func (f *stageFold) run(lo, hi int) bool {
	epw := f.epw
	shift := uint(bits.TrailingZeros(uint(8 / epw))) // counter index = byte offset >> shift
	lo, hi = lo<<shift, hi<<shift
	ab, bb := f.ab[:hi], f.bb[:hi]
	// The range's own bitmap words end pending: a split merge's other
	// ranges clear theirs concurrently.
	var pending []uint64
	if f.in != nil {
		pending = f.in.bits[:(hi>>shift+63)/64]
	}
	end := lo + (hi-lo)&^(blockBytes-1)
	produced := false
	off, carry := lo, -1 // carry: counter index of the next pending carry, once looked up
	for off < end {
		// Blocks ahead of the next pending carry take the call-free loop.
		stop := end
		if pending != nil {
			if carry < off>>shift {
				carry = nextCarry(pending, off>>shift)
			}
			stop = min(end, carry<<shift&^(blockBytes-1))
		}
		if off = foldBlocks(ab[:stop], bb[:stop], off, f.screen); off == end {
			break
		}
		carried := carriedBits(pending, off, shift, blockBytes)
		for j := 0; j < blockBytes/8; j++ {
			if f.word(off+8*j, carried>>(j*epw)&(1<<epw-1) != 0) {
				produced = true
			}
		}
		off += blockBytes
	}
	for ; off+8 <= hi; off += 8 {
		if f.word(off, carriedBits(pending, off, shift, 8) != 0) {
			produced = true
		}
	}
	if off < hi && f.s.mergeSpanScalar(f.a, f.b, f.l, off>>shift, hi>>shift, f.in, f.out) {
		produced = true
	}
	return produced
}

// nextCarry returns the index of the first counter at or after i whose
// bit is set in the pending-carry bitmap, or a bound past every counter
// when there is none.
func nextCarry(pending []uint64, i int) int {
	for w := i >> 6; w < len(pending); w++ {
		x := pending[w]
		if w == i>>6 {
			x &= ^uint64(0) << (i & 63)
		}
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return len(pending) << 6
}

// carriedBits returns the pending-carry bits of the counters in the span
// of size bytes at byte offset off (counter index off>>shift). Spans are
// aligned and hold at most 32 counters, so their bits share one bitmap
// word.
func carriedBits(pending []uint64, off int, shift uint, size int) uint64 {
	if pending == nil {
		return 0
	}
	i := off >> shift
	return pending[i>>6] >> (i & 63) & (1<<(size>>shift) - 1)
}

// foldBlocks is the call-free loop over the whole blocks of ab from byte
// offset off, which the caller guarantees carry-free: a block that passes
// the prescreen is added plainly, and one whose source words are all zero
// is skipped. It returns the offset of the first block that needs the
// word-by-word path, or len(ab) when there is none. The zero test follows
// the prescreen rather than leading it: on loaded windows, where zero and
// nonzero source blocks interleave, a leading test costs more in
// mispredicted branches than the loads and stores it saves.
func foldBlocks(ab, bb []byte, off int, screen uint64) int {
	ne := binary.NativeEndian
	bb = bb[:len(ab)]
	for ; off+blockBytes <= len(ab); off += blockBytes {
		xs := ab[off : off+blockBytes : off+blockBytes]
		ys := bb[off : off+blockBytes : off+blockBytes]
		y0, y1, y2, y3 := ne.Uint64(ys[0:]), ne.Uint64(ys[8:]), ne.Uint64(ys[16:]), ne.Uint64(ys[24:])
		x0, x1, x2, x3 := ne.Uint64(xs[0:]), ne.Uint64(xs[8:]), ne.Uint64(xs[16:]), ne.Uint64(xs[24:])
		if (x0|y0|x1|y1|x2|y2|x3|y3)&screen != 0 {
			if y0|y1|y2|y3 == 0 {
				continue
			}
			return off
		}
		ne.PutUint64(xs[0:], x0+y0)
		ne.PutUint64(xs[8:], x1+y1)
		ne.PutUint64(xs[16:], x2+y2)
		ne.PutUint64(xs[24:], x3+y3)
	}
	return off
}

// word folds the 64-bit word at byte offset off of the stage, with
// carried reporting pending carry into any of its counters, and reports
// whether it promoted.
func (f *stageFold) word(off int, carried bool) bool {
	if !carried {
		ne := binary.NativeEndian
		x, y := ne.Uint64(f.ab[off:]), ne.Uint64(f.bb[off:])
		switch {
		case y == 0:
			return false
		case x == 0:
			ne.PutUint64(f.ab[off:], y)
			return false
		}
		if sum, ok := swarFold(x, y, f.hi, f.bias); ok {
			ne.PutUint64(f.ab[off:], sum)
			return false
		}
	}
	i := off / (8 / f.epw)
	return f.s.mergeSpanScalar(f.a, f.b, f.l, i, i+f.epw, f.in, f.out)
}

// mergeSpanScalar merges registers [lo,hi) of stage l one counter at a
// time — the exact §5 semantics (see Merge) the word path defers to for
// counters it cannot prove safe. It consumes (and zeroes) the carry in
// holds for those counters and reports whether it promoted any excess
// into out.
func (s *Sketch) mergeSpanScalar(a, b *tree, l, lo, hi int, in, out *carryBuf) bool {
	last := len(s.widths) - 1
	max := uint64(a.max[l])
	mark := a.mark[l]
	produced := false
	for i := lo; i < hi; i++ {
		va, vb := a.load(l, i), b.load(l, i)
		var c uint64
		if in != nil {
			c = in.val[i]
			in.val[i] = 0
		}
		if l == last {
			// Root stage saturates like the update path.
			c += uint64(va) + uint64(vb)
			if c > max {
				c = max
			}
			a.store(l, i, uint32(c))
			continue
		}
		overflowed := va == mark || vb == mark
		if va == mark {
			c += max
		} else {
			c += uint64(va)
		}
		if vb == mark {
			c += max
		} else {
			c += uint64(vb)
		}
		if overflowed || c > max {
			a.store(l, i, mark)
			if c > max {
				out.add(a.parent(i), c-max, a.stageLen(l+1))
				produced = true
			}
		} else {
			a.store(l, i, uint32(c))
		}
	}
	return produced
}

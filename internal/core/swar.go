// Word-wide (SWAR) fold kernels for the merge plane. The typed counter
// lanes of PR 6 store a stage contiguously at its native width — []uint8,
// []uint16 or []uint32 — so one 64-bit load carries 8, 4 or 2 counters.
// Merging two sketches is then mostly a vector add: for a word where
// neither source holds an overflow marker, no per-counter sum reaches the
// stage's counting capacity, and no carry is pending from the child stage,
// the merged word is the plain field-wise sum, computed and stored in a
// handful of ALU ops. Words that do contain marks, would overflow, or have
// incoming carry fall back to a scalar walk (mergeSpanScalar) for exactly
// those counters, so the result is bit-identical to a register-at-a-time
// merge by construction (and the difftest harness re-proves it on every
// geometry).
//
// The field-wise tests use two classic SWAR identities over a word with
// the per-field high bits masked by hi:
//
//	sum  = ((a &^ hi) + (b &^ hi)) ^ ((a ^ b) & hi)      field-wise a+b
//	cout = ((a & b) | ((a | b) &^ sum)) & hi             per-field carry-out
//
// and detect "any field ≥ mark" by adding the bias (fieldCap − mark) to
// every field of the sum and watching for carry-out: sum + bias overflows
// a field exactly when sum ≥ mark. Because stage values never exceed the
// overflow marker, a field sum below the mark also proves neither source
// field was the mark — one test covers both fast-path conditions.
package core

import (
	"encoding/binary"

	"github.com/fcmsketch/fcm/internal/sketch"
)

// Per-field high-bit masks and single-field replication factors for the
// three lane widths.
const (
	hi8  = 0x8080808080808080
	rep8 = 0x0101010101010101

	hi16  = 0x8000800080008000
	rep16 = 0x0001000100010001

	hi32  = 0x8000000080000000
	rep32 = 0x0000000100000001
)

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

// carryScratch is a reusable per-sketch carry buffer. take returns a
// zeroed prefix; only the prefix a previous merge actually dirtied is
// cleared, so a merge whose fast path never promotes (the common case)
// touches no carry memory at all beyond the slice header.
type carryScratch struct {
	buf   []uint64
	dirty int // prefix that may hold nonzero entries
}

// take returns buf[:n] with every entry zero.
func (c *carryScratch) take(n int) []uint64 {
	if cap(c.buf) < n {
		c.buf = make([]uint64, n)
		c.dirty = 0
	}
	c.buf = c.buf[:cap(c.buf)]
	clear(c.buf[:c.dirty])
	c.dirty = 0
	return c.buf[:n]
}

// note records that entries of the last take-n prefix may now be nonzero.
func (c *carryScratch) note(n int) {
	if n > c.dirty {
		c.dirty = n
	}
}

// mergeStage folds stage l of tree b into tree a. carry holds per-node
// incoming promotions from the child stage (nil means provably all-zero);
// next accumulates promotions into the parent stage (nil at the root).
// It reports whether any entry of next became nonzero.
func (s *Sketch) mergeStage(a, b *tree, l int, carry, next []uint64) bool {
	sa, sb := a.views[l], b.views[l]
	mark := uint64(a.mark[l])
	switch sa.kind {
	case laneU8:
		return s.mergeStageWords(a, b, l,
			a.lane8[sa.base:sa.base+sa.n], b.lane8[sb.base:sb.base+sb.n],
			1, hi8, (0x100-mark)*rep8, carry, next)
	case laneU16:
		return s.mergeStageWords(a, b, l,
			sketch.BytesU16(a.lane16[sa.base:sa.base+sa.n]),
			sketch.BytesU16(b.lane16[sb.base:sb.base+sb.n]),
			2, hi16, (0x1_0000-mark)*rep16, carry, next)
	default:
		return s.mergeStageWords(a, b, l,
			sketch.BytesU32(a.lane32[sa.base:sa.base+sa.n]),
			sketch.BytesU32(b.lane32[sb.base:sb.base+sb.n]),
			4, hi32, (0x1_0000_0000-mark)*rep32, carry, next)
	}
}

// mergeStageWords is the word loop shared by the three lane widths: ab and
// bb are the two stages' raw lane bytes (native order), fieldBytes the
// counter width, hi/bias the width's SWAR masks. Whole words take the one-
// add fast path; a word with pending carry, a marker, or an overflowing
// field falls back to the scalar span, as does the sub-word tail.
func (s *Sketch) mergeStageWords(a, b *tree, l int, ab, bb []byte, fieldBytes int, hi, bias uint64, carry, next []uint64) bool {
	n := a.views[l].n
	epw := 8 / fieldBytes // counters per 64-bit word
	produced := false
	i := 0
	for ; i+epw <= n; i += epw {
		if carry != nil {
			cw := uint64(0)
			for j := 0; j < epw; j++ {
				cw |= carry[i+j]
			}
			if cw != 0 {
				if s.mergeSpanScalar(a, b, l, i, i+epw, carry, next) {
					produced = true
				}
				continue
			}
		}
		off := i * fieldBytes
		aw := binary.NativeEndian.Uint64(ab[off:])
		bw := binary.NativeEndian.Uint64(bb[off:])
		if sum, ok := swarFold(aw, bw, hi, bias); ok {
			binary.NativeEndian.PutUint64(ab[off:], sum)
			continue
		}
		if s.mergeSpanScalar(a, b, l, i, i+epw, carry, next) {
			produced = true
		}
	}
	if i < n {
		if s.mergeSpanScalar(a, b, l, i, n, carry, next) {
			produced = true
		}
	}
	return produced
}

// mergeSpanScalar merges registers [lo,hi) of stage l one counter at a
// time — the exact §5 semantics (see Merge) the word path defers to for
// counters it cannot prove safe. It reports whether it promoted any
// excess into next.
func (s *Sketch) mergeSpanScalar(a, b *tree, l, lo, hi int, carry, next []uint64) bool {
	last := len(s.widths) - 1
	max := uint64(a.max[l])
	mark := a.mark[l]
	produced := false
	for i := lo; i < hi; i++ {
		va, vb := a.load(l, i), b.load(l, i)
		var c uint64
		if carry != nil {
			c = carry[i]
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
				next[i/s.k] += c - max
				produced = true
			}
		} else {
			a.store(l, i, uint32(c))
		}
	}
	return produced
}

// Codec v4: delta snapshots. A full snapshot re-sends every register
// every poll; at fleet scale the registers barely change between polls and
// collection bandwidth — not sketch accuracy — becomes the bottleneck
// (DUNE, the P4 Count-Min telemetry analysis). A delta frame carries only
// the registers that changed since a baseline generation both sides agree
// on, each at its stage's width, plus enough redundancy that a wrong
// reconstruction is impossible:
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
	// deltaVersion 4 carries stage-width register values and embeds FCMS
	// version 3; version 3 carried u32 values and embedded FCMS version 2.
	deltaVersion = 4
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
	// value bytes(1), pad(1), count(4).
	deltaBlockHeaderLen = 8
)

// DeltaBlock is one stage's changed registers: Indexes names each changed
// counter's position within the stage, and Values holds the new values at
// the stage's lane width (1, 2 or 4 bytes each, little-endian — the
// layout of Snapshot.Regs), so entry i is Values[i*w:(i+1)*w] with
// w = len(Values)/len(Indexes). A block names at least one counter.
type DeltaBlock struct {
	Tree    int
	Stage   int
	Indexes []uint32
	Values  []byte
}

// valueBytes returns the block's bytes per value, or 0 when the block is
// empty or its slices disagree with every lane width.
func (b *DeltaBlock) valueBytes() int {
	if len(b.Indexes) == 0 {
		return 0
	}
	switch w := len(b.Values) / len(b.Indexes); {
	case len(b.Values)%len(b.Indexes) != 0:
		return 0
	case w == 1 || w == 2 || w == 4:
		return w
	default:
		return 0
	}
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
	// Snap is the embedded full snapshot when Full is set.
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
	return o != nil && s.K == o.K && s.Trees == o.Trees && s.W1 == o.W1 &&
		s.FlagBit == o.FlagBit && slices.Equal(s.Widths, o.Widths) && len(s.Regs) == len(o.Regs)
}

// StateCRC is the CRC-32C over the snapshot's canonical state: a geometry
// header (k, trees, w1 as big-endian u32s, the stage count and width
// bytes, the flags byte of the snapshot encoding), then Regs in one pass.
// A delta frame pins the post-apply state with this value, so applying a
// delta to the wrong baseline cannot go unnoticed.
func (s *Snapshot) StateCRC() uint32 {
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
	return crc32.Update(crc, castagnoli, s.Regs)
}

// crcHeaderCap fits StateCRC's header for every encodable geometry
// (at most 255 stages).
const crcHeaderCap = 12 + 1 + 255 + 1

// crcHeaderPool feeds StateCRC's header buffer.
var crcHeaderPool = sync.Pool{New: func() any { return new([crcHeaderCap]byte) }}

// Word-wide diff helpers. A stage's bytes are read eight at a time as
// little-endian words, so field f of a word holds counter (word offset /
// size) + f at bits [8·size·f, 8·size·(f+1)); a stage whose byte length
// is not a multiple of 8 ends in a zero-padded partial word. Whole words
// go four at a time: one OR of their XORs skips an unchanged 32-byte
// block, the common case between polls.

// laneHighBits has the highest bit of every field set, per counter size.
var laneHighBits = [5]uint64{1: 0x8080808080808080, 2: 0x8000800080008000, 4: 0x8000000080000000}

// fieldMarks turns every nonzero field of x into a field holding 1 and
// every zero field into 0: adding ^hi to the field's low bits carries into
// its high bit exactly when they are nonzero.
func fieldMarks(x, hi uint64, shift uint) uint64 {
	return ((((x &^ hi) + ^hi) | x) & hi) >> shift
}

// xorBlock returns the XORs of the four little-endian words of a and b.
func xorBlock(a, b *[32]byte) (x0, x1, x2, x3 uint64) {
	le := binary.LittleEndian
	return le.Uint64(a[0:8]) ^ le.Uint64(b[0:8]), le.Uint64(a[8:16]) ^ le.Uint64(b[8:16]),
		le.Uint64(a[16:24]) ^ le.Uint64(b[16:24]), le.Uint64(a[24:32]) ^ le.Uint64(b[24:32])
}

// tailWord loads the (at most eight) bytes of b from i on as a
// little-endian word, zero-padded.
func tailWord(b []byte, i int) uint64 {
	var w uint64
	for j, c := range b[i:min(i+8, len(b))] {
		w |= uint64(c) << (8 * j)
	}
	return w
}

// countChanged counts the counters of size bytes that differ between a
// and b (one stage each, equal lengths). A block's field marks are summed
// (at most 4 per field) and the sum's fields added by one multiply.
func countChanged(a, b []byte, size int) int {
	hi, shift := laneHighBits[size], uint(8*size-1)
	ones, top := hi>>shift, uint(64-8*size)
	n, i := 0, 0
	for ; i+32 <= len(a); i += 32 {
		x0, x1, x2, x3 := xorBlock((*[32]byte)(a[i:]), (*[32]byte)(b[i:]))
		if x0|x1|x2|x3 != 0 {
			m := fieldMarks(x0, hi, shift) + fieldMarks(x1, hi, shift) +
				fieldMarks(x2, hi, shift) + fieldMarks(x3, hi, shift)
			n += int(m * ones >> top)
		}
	}
	for ; i < len(a); i += 8 {
		m := fieldMarks(tailWord(a, i)^tailWord(b, i), hi, shift)
		n += int(m * ones >> top)
	}
	return n
}

// stageDiff writes the index and new value of every counter that differs
// between the stage bytes of a base and a current snapshot into idx and
// val, which countChanged sized exactly.
type stageDiff struct {
	idx   []uint32
	val   []byte
	k     int    // entries written
	size  int    // bytes per counter
	hi    uint64 // laneHighBits[size]
	shift uint   // log2 of the bits per counter
}

// word records the changed fields of x, the XOR of the base and current
// words at stage byte offset i; cw is the current word. It walks the
// unshifted field marks, one bit per changed field, so a field costs one
// trailing-zero count, in a loop specialised per counter size.
func (d *stageDiff) word(i int, x, cw uint64) {
	first := uint32(i >> (d.shift - 3))
	m, k := fieldMarks(x, d.hi, 0), d.k
	switch d.size {
	case 1:
		for ; m != 0; m &= m - 1 {
			f := uint(bits.TrailingZeros64(m)) >> 3
			d.idx[k], d.val[k] = first+uint32(f), uint8(cw>>(f<<3))
			k++
		}
	case 2:
		for ; m != 0; m &= m - 1 {
			f := uint(bits.TrailingZeros64(m)) >> 4
			d.idx[k] = first + uint32(f)
			binary.LittleEndian.PutUint16(d.val[2*k:], uint16(cw>>(f<<4)))
			k++
		}
	default:
		for ; m != 0; m &= m - 1 {
			f := uint(bits.TrailingZeros64(m)) >> 5
			d.idx[k] = first + uint32(f)
			binary.LittleEndian.PutUint32(d.val[4*k:], uint32(cw>>(f<<5)))
			k++
		}
	}
	d.k = k
}

// diffRange fills idx and val from bytes [lo, hi) of stage bytes a (base)
// and b (current), lo a multiple of 8; only words that differ are walked
// per field. Indexes stay relative to the stage, not the range.
func diffRange(idx []uint32, val []byte, a, b []byte, lo, hi, size int) {
	d := stageDiff{idx: idx, val: val, size: size, hi: laneHighBits[size], shift: uint(bits.TrailingZeros(uint(size))) + 3}
	i := lo
	for ; i+32 <= hi; i += 32 {
		pb := (*[32]byte)(b[i:])
		x0, x1, x2, x3 := xorBlock((*[32]byte)(a[i:]), pb)
		if x0|x1|x2|x3 == 0 {
			continue
		}
		le := binary.LittleEndian
		if x0 != 0 {
			d.word(i, x0, le.Uint64(pb[0:8]))
		}
		if x1 != 0 {
			d.word(i+8, x1, le.Uint64(pb[8:16]))
		}
		if x2 != 0 {
			d.word(i+16, x2, le.Uint64(pb[16:24]))
		}
		if x3 != 0 {
			d.word(i+24, x3, le.Uint64(pb[24:32]))
		}
	}
	for ; i < hi; i += 8 {
		cw := tailWord(b, i)
		if w := tailWord(a, i) ^ cw; w != 0 {
			d.word(i, w, cw)
		}
	}
}

// diffMinPart is the smallest stage range, in bytes, that DiffSnapshots
// hands to a core of its own: below it a goroutine's start and wake-up
// cost more than the range's count and walk.
const diffMinPart = 32 << 10

// diffParts is the number of ranges DiffSnapshots cuts a stage of n bytes
// into: one per core the stage can keep busy, so a stage under two
// minimum ranges stays whole. Tests replace it to force cuts inside small
// stages.
var diffParts = func(n int) int { return max(1, min(runtime.GOMAXPROCS(0), n/diffMinPart)) }

// diffPart is one word-aligned byte range [lo, hi) of tree t, stage l:
// its changed-counter count n, then its offsets into the diff's index
// and value buffers.
type diffPart struct {
	t, l         int
	sp           stageSpan
	lo, hi       int
	n, off, voff int
}

// snapshotDiff is one DiffSnapshots call: the registers it compares, the
// ranges it cut them into and the buffers the ranges fill.
type snapshotDiff struct {
	base, cur []byte
	parts     []diffPart
	idx       []uint32
	val       []byte
}

// count is the first pass over part i.
func (d *snapshotDiff) count(i int) {
	p := &d.parts[i]
	p.n = countChanged(p.sp.bytes(d.base)[p.lo:p.hi], p.sp.bytes(d.cur)[p.lo:p.hi], p.sp.size)
}

// walk is the second pass over part i, into the place count made for it.
func (d *snapshotDiff) walk(i int) {
	p := &d.parts[i]
	if p.n > 0 {
		diffRange(d.idx[p.off:p.off+p.n], d.val[p.voff:p.voff+p.n*p.sp.size],
			p.sp.bytes(d.base), p.sp.bytes(d.cur), p.lo, p.hi, p.sp.size)
	}
}

// each runs pass(d, i) for every part on up to workers goroutines, the
// caller's among them, each claiming the next part in turn; one worker
// runs the parts in order on the caller's goroutine.
func (d *snapshotDiff) each(workers int, pass func(*snapshotDiff, int)) {
	n := len(d.parts)
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			pass(d, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go d.claim(&next, &wg, pass)
	}
	d.claim(&next, &wg, pass)
	wg.Wait()
}

// claim runs pass on parts claimed from next until none are left.
func (d *snapshotDiff) claim(next *atomic.Int64, wg *sync.WaitGroup, pass func(*snapshotDiff, int)) {
	defer wg.Done()
	for i := int(next.Add(1) - 1); i < len(d.parts); i = int(next.Add(1) - 1) {
		pass(d, i)
	}
}

// DiffSnapshots computes the registers of cur that differ from base, as
// per-stage delta blocks in tree/stage/index order. ok is false when the
// snapshots do not share a geometry (no delta exists between them).
//
// Each stage is compared eight bytes at a time; only words that differ
// are walked field by field. A stage large enough to keep several cores
// busy is cut into word-aligned ranges (diffParts), and the ranges of
// every stage run in parallel: a first pass counts each range's changed
// counters, which places every range exactly in two buffers allocated
// once at their total size, and a second pass walks the ranges into
// them. The blocks are the same whatever the cut.
func DiffSnapshots(base, cur *Snapshot) (blocks []DeltaBlock, ok bool) {
	if base == nil || cur == nil || !base.SameGeometry(cur) || len(base.Regs) != base.regsLen() {
		return nil, false
	}
	d := &snapshotDiff{base: base.Regs, cur: cur.Regs, parts: make([]diffPart, 0, base.Trees*len(base.Widths))}
	workers := 1
	base.eachStage(func(t, l int, sp stageSpan) {
		n := sp.n * sp.size
		words, p := (n+7)/8, diffParts(n)
		workers = max(workers, p)
		for j := 0; j < p; j++ {
			if lo, hi := 8*(j*words/p), min(8*((j+1)*words/p), n); lo < hi {
				d.parts = append(d.parts, diffPart{t: t, l: l, sp: sp, lo: lo, hi: hi})
			}
		}
	})
	d.each(workers, (*snapshotDiff).count)
	nIdx, nVal := 0, 0
	for i := range d.parts {
		p := &d.parts[i]
		p.off, p.voff = nIdx, nVal
		nIdx, nVal = nIdx+p.n, nVal+p.n*p.sp.size
	}
	if nIdx == 0 {
		return nil, true
	}
	d.idx, d.val = make([]uint32, nIdx), make([]byte, nVal)
	d.each(workers, (*snapshotDiff).walk)
	blocks = make([]DeltaBlock, 0, base.Trees*len(base.Widths))
	idx, val := d.idx, d.val
	for i := 0; i < len(d.parts); {
		p, c := d.parts[i], 0
		for ; i < len(d.parts) && d.parts[i].sp == p.sp; i++ {
			c += d.parts[i].n
		}
		if w := c * p.sp.size; c > 0 {
			blocks = append(blocks, DeltaBlock{Tree: p.t, Stage: p.l, Indexes: idx[:c:c], Values: val[:w:w]})
			idx, val = idx[c:], val[w:]
		}
	}
	return blocks, true
}

// ApplyDelta returns a new snapshot: base with every block's registers
// overwritten — one copy of base's registers, then the scatter of
// applyBlocks. The base is not modified. Any block naming a tree, stage or
// index outside the base's geometry, or carrying values of another width
// than its stage's, is an error — the delta was diffed against a
// different baseline and must not be merged.
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
	for bi, b := range blocks {
		if b.Tree < 0 || b.Tree >= s.Trees {
			return fmt.Errorf("collect: delta block %d names tree %d of %d", bi, b.Tree, s.Trees)
		}
		if b.Stage < 0 || b.Stage >= len(s.Widths) {
			return fmt.Errorf("collect: delta block %d names stage %d of %d", bi, b.Stage, len(s.Widths))
		}
		sp := s.span(b.Tree, b.Stage)
		if len(b.Values) != len(b.Indexes)*sp.size {
			return fmt.Errorf("collect: delta block %d has %d indexes and %dB of values, stage counters are %dB",
				bi, len(b.Indexes), len(b.Values), sp.size)
		}
		stage := sp.bytes(s.Regs)
		for i, idx := range b.Indexes {
			if int(idx) >= sp.n {
				return fmt.Errorf("collect: delta block %d index %d outside stage of %d", bi, idx, sp.n)
			}
			switch sp.size {
			case 1:
				stage[idx] = b.Values[i]
			case 2:
				copy(stage[2*idx:2*idx+2], b.Values[2*i:2*i+2])
			default:
				copy(stage[4*idx:4*idx+4], b.Values[4*i:4*i+4])
			}
		}
	}
	return nil
}

// deltaBlocksEncodedSize is the exact encoded size of a delta frame
// holding blocks (used to pick delta vs full before encoding anything).
func deltaBlocksEncodedSize(blocks []DeltaBlock) int {
	n := 4 // block count
	for _, b := range blocks {
		n += deltaBlockHeaderLen + 4*len(b.Indexes) + len(b.Values)
	}
	return deltaHeaderLen + n + deltaTrailerLen
}

// Encode serializes the frame as FCMD version 4.
//
// Layout (integers big-endian unless noted):
//
//	u32 magic "FCMD", u8 version(4), u8 flags, u16 pad,
//	u64 baseGen, u64 newGen, u32 stateCRC, u32 bodyLen,
//	body (full: a complete FCMS version-3 snapshot; delta: u32 blockCount,
//	then per block u8 tree, u8 stage, u8 value bytes (1, 2 or 4), u8 pad,
//	u32 count ≥ 1, count × u32 index, count × value at the value width,
//	little-endian),
//	u32 crc32c over everything above
func (f *DeltaFrame) Encode() ([]byte, error) {
	return f.AppendEncode(nil)
}

// AppendEncode serializes the frame (see Encode for the layout), appending
// to dst and returning the extended slice. The bytes produced are
// identical to Encode's: the body is appended in place and the header's
// bodyLen patched afterwards, so no intermediate body buffer exists.
func (f *DeltaFrame) AppendEncode(dst []byte) ([]byte, error) {
	flags := uint8(0)
	if f.Full {
		flags |= deltaFlagFull
		if f.Snap == nil {
			return nil, fmt.Errorf("collect: full delta frame without snapshot")
		}
		dst = slices.Grow(dst, deltaHeaderLen+f.Snap.encodedSize()+deltaTrailerLen)
	} else {
		dst = slices.Grow(dst, deltaBlocksEncodedSize(f.Blocks))
	}
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, deltaMagic)
	dst = append(dst, deltaVersion, flags, 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, f.BaseGen)
	dst = binary.BigEndian.AppendUint64(dst, f.NewGen)
	dst = binary.BigEndian.AppendUint32(dst, f.StateCRC)
	dst = binary.BigEndian.AppendUint32(dst, 0) // bodyLen, patched below
	bodyStart := len(dst)
	if f.Full {
		var err error
		dst, err = f.Snap.AppendEncode(dst)
		if err != nil {
			return nil, err
		}
	} else {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f.Blocks)))
		for _, b := range f.Blocks {
			if b.Tree < 0 || b.Tree > 255 || b.Stage < 0 || b.Stage > 255 {
				return nil, fmt.Errorf("collect: delta block tree/stage out of range: %d/%d", b.Tree, b.Stage)
			}
			w := b.valueBytes()
			if w == 0 {
				return nil, fmt.Errorf("collect: delta block has %d indexes and %dB of values", len(b.Indexes), len(b.Values))
			}
			dst = append(dst, uint8(b.Tree), uint8(b.Stage), uint8(w), 0)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Indexes)))
			for _, idx := range b.Indexes {
				dst = binary.BigEndian.AppendUint32(dst, idx)
			}
			dst = append(dst, b.Values...)
		}
	}
	binary.BigEndian.PutUint32(dst[start+28:], uint32(len(dst)-bodyStart))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// DecodeDeltaFrame parses an encoded frame, verifying the frame CRC
// before trusting any field. A full frame's embedded snapshot is decoded
// (its own CRC re-verified) and checked against the frame's StateCRC, so a
// decoded full frame is always internally consistent. Only FCMD version 4
// decodes, and only with an FCMS version-3 body: both ends of a
// collection link move versions together, so a mismatch is a decode
// error, never a guess.
func DecodeDeltaFrame(data []byte) (*DeltaFrame, error) {
	if len(data) < deltaHeaderLen+deltaTrailerLen {
		return nil, fmt.Errorf("collect: delta frame of %dB too short", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if want, got := binary.BigEndian.Uint32(trailer), crc32.Checksum(body, castagnoli); want != got {
		return nil, fmt.Errorf("collect: delta frame checksum mismatch: got 0x%08x want 0x%08x", got, want)
	}
	if m := binary.BigEndian.Uint32(data[0:]); m != deltaMagic {
		return nil, fmt.Errorf("collect: bad delta magic 0x%08x", m)
	}
	if v := data[4]; v != deltaVersion {
		return nil, fmt.Errorf("collect: unsupported delta version %d", v)
	}
	flags := data[5]
	if flags&^uint8(deltaFlagFull) != 0 {
		return nil, fmt.Errorf("collect: unknown delta flags 0x%02x", flags)
	}
	if pad := binary.BigEndian.Uint16(data[6:]); pad != 0 {
		return nil, fmt.Errorf("collect: delta frame padding 0x%04x must be zero", pad)
	}
	f := &DeltaFrame{
		Full:     flags&deltaFlagFull != 0,
		BaseGen:  binary.BigEndian.Uint64(data[8:]),
		NewGen:   binary.BigEndian.Uint64(data[16:]),
		StateCRC: binary.BigEndian.Uint32(data[24:]),
	}
	bodyLen := binary.BigEndian.Uint32(data[28:])
	payload := data[deltaHeaderLen : len(data)-4]
	if int64(bodyLen) != int64(len(payload)) {
		return nil, fmt.Errorf("collect: delta body length %d, frame carries %d", bodyLen, len(payload))
	}
	if f.Full {
		snap, err := DecodeSnapshot(payload)
		if err != nil {
			return nil, fmt.Errorf("collect: embedded full snapshot: %w", err)
		}
		if got := snap.StateCRC(); got != f.StateCRC {
			return nil, fmt.Errorf("collect: full frame state CRC 0x%08x does not match payload 0x%08x", f.StateCRC, got)
		}
		if f.BaseGen != 0 {
			return nil, fmt.Errorf("collect: full frame carries base generation %d", f.BaseGen)
		}
		f.Snap = snap
		return f, nil
	}
	if len(payload) < 4 {
		return nil, fmt.Errorf("collect: delta block count truncated")
	}
	nBlocks := binary.BigEndian.Uint32(payload)
	p := payload[4:]
	// Every block costs at least a header and one entry on the wire, so
	// the remaining payload bounds the count before any allocation
	// proportional to it.
	if int64(nBlocks)*(deltaBlockHeaderLen+5) > int64(len(p)) {
		return nil, fmt.Errorf("collect: %d delta blocks cannot fit %d body bytes", nBlocks, len(p))
	}
	f.Blocks = make([]DeltaBlock, 0, nBlocks)
	for bi := uint32(0); bi < nBlocks; bi++ {
		if len(p) < deltaBlockHeaderLen {
			return nil, fmt.Errorf("collect: delta block %d header truncated", bi)
		}
		w, count := int(p[2]), binary.BigEndian.Uint32(p[4:])
		switch {
		case p[3] != 0:
			return nil, fmt.Errorf("collect: delta block %d nonzero padding", bi)
		case w != 1 && w != 2 && w != 4:
			return nil, fmt.Errorf("collect: delta block %d values of %d bytes", bi, w)
		case count == 0:
			return nil, fmt.Errorf("collect: delta block %d is empty", bi)
		case int64(count)*int64(4+w) > int64(len(p)-deltaBlockHeaderLen):
			return nil, fmt.Errorf("collect: delta block %d claims %d entries beyond body", bi, count)
		}
		n := int(count)
		b := DeltaBlock{Tree: int(p[0]), Stage: int(p[1]), Indexes: make([]uint32, n)}
		p = p[deltaBlockHeaderLen:]
		for i := range b.Indexes {
			b.Indexes[i] = binary.BigEndian.Uint32(p[4*i:])
		}
		b.Values = slices.Clone(p[4*n : 4*n+w*n])
		p = p[(4+w)*n:]
		f.Blocks = append(f.Blocks, b)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("collect: %d trailing bytes after delta blocks", len(p))
	}
	return f, nil
}

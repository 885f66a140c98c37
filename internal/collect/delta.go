// Codec v3: delta snapshots. A full v2 snapshot re-sends every register
// every poll; at fleet scale the registers barely change between polls and
// collection bandwidth — not sketch accuracy — becomes the bottleneck
// (DUNE, the P4 Count-Min telemetry analysis). A v3 frame carries only the
// registers that changed since a baseline generation both sides agree on,
// plus enough redundancy that a wrong reconstruction is impossible:
//
//   - the frame itself is CRC-32C protected (like v2), so transit
//     corruption is rejected before any field is trusted;
//   - the frame pins the CRC-32C of the COMPLETE post-apply register state
//     (StateCRC), so a client that applies a delta to the wrong baseline —
//     or to a stale one — detects the divergence and falls back to a full
//     snapshot instead of merging garbage;
//   - generation numbers tie each delta to the exact server-side snapshot
//     it was diffed against; any mismatch degrades to a full snapshot.
//
// The fallback is therefore: v3 delta → v3 full (server-chosen, and also
// whenever the delta would be larger than the full encoding). Both
// re-converge; neither can merge wrong.
package collect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"github.com/fcmsketch/fcm/internal/sketch"
)

// v3 codec constants.
const (
	// deltaMagic ("FCMD") is distinct from the v2 snapshot magic so a v3
	// frame can never be mistaken for a raw snapshot by an old decoder.
	deltaMagic = 0x46434d44
	// deltaVersion is the wire version carried by delta frames.
	deltaVersion = 3
	// deltaFlagFull marks a frame whose body is a complete v2 snapshot
	// (the in-band fallback rung).
	deltaFlagFull = 0x01

	// deltaHeaderLen is the fixed prefix before the body: magic(4),
	// version(1), flags(1), pad(2), baseGen(8), newGen(8), stateCRC(4),
	// bodyLen(4).
	deltaHeaderLen = 32
	// deltaTrailerLen is the CRC-32C over everything before it.
	deltaTrailerLen = 4
)

// DeltaBlock is one stage's changed registers: parallel index/value slices,
// indexes strictly within the stage the block names.
type DeltaBlock struct {
	Tree    int
	Stage   int
	Indexes []uint32
	Values  []uint32
}

// DeltaFrame is a decoded v3 collection response: either a delta against
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

// Clone returns a deep copy of the snapshot (geometry and values share
// nothing with the receiver).
func (s *Snapshot) Clone() *Snapshot {
	c := &Snapshot{
		K:      s.K,
		Trees:  s.Trees,
		W1:     s.W1,
		Widths: append([]int(nil), s.Widths...),
	}
	c.Values = make([][][]uint32, len(s.Values))
	for t := range s.Values {
		c.Values[t] = make([][]uint32, len(s.Values[t]))
		for l := range s.Values[t] {
			c.Values[t][l] = append([]uint32(nil), s.Values[t][l]...)
		}
	}
	return c
}

// SameGeometry reports whether two snapshots describe the same sketch
// shape (and may therefore be diffed / delta-applied against each other).
func (s *Snapshot) SameGeometry(o *Snapshot) bool {
	if o == nil || s.K != o.K || s.Trees != o.Trees || s.W1 != o.W1 || len(s.Widths) != len(o.Widths) {
		return false
	}
	for i := range s.Widths {
		if s.Widths[i] != o.Widths[i] {
			return false
		}
	}
	if len(s.Values) != len(o.Values) {
		return false
	}
	for t := range s.Values {
		if len(s.Values[t]) != len(o.Values[t]) {
			return false
		}
		for l := range s.Values[t] {
			if len(s.Values[t][l]) != len(o.Values[t][l]) {
				return false
			}
		}
	}
	return true
}

// StateCRC is the CRC-32C over the snapshot's canonical register stream:
// geometry header, then every stage's values in tree/stage/index order,
// big-endian. A delta frame pins the post-apply state with this value, so
// applying a delta to the wrong baseline cannot go unnoticed.
func (s *Snapshot) StateCRC() uint32 {
	// One pooled buffer carries the header, the width bytes, and then the
	// values a fixed chunk at a time: the byte stream hashed is identical
	// to appending one field at a time, without per-value bookkeeping or
	// per-call allocation (crc32.Update's escape analysis would otherwise
	// heap-allocate every buffer handed to it).
	bufp := crcChunkPool.Get().(*[4096]byte)
	defer crcChunkPool.Put(bufp)
	buf := bufp[:]
	binary.BigEndian.PutUint32(buf[0:], uint32(s.K))
	binary.BigEndian.PutUint32(buf[4:], uint32(s.Trees))
	binary.BigEndian.PutUint32(buf[8:], uint32(s.W1))
	buf[12] = uint8(len(s.Widths))
	n := 13
	for _, w := range s.Widths {
		buf[n] = uint8(w)
		n++
	}
	crc := crc32.Update(0, castagnoli, buf[:n])
	for t := range s.Values {
		for l := range s.Values[t] {
			vals := s.Values[t][l]
			for len(vals) > 0 {
				n := len(vals)
				if n > len(buf)/4 {
					n = len(buf) / 4
				}
				for i, v := range vals[:n] {
					binary.BigEndian.PutUint32(buf[4*i:], v)
				}
				crc = crc32.Update(crc, castagnoli, buf[:4*n])
				vals = vals[n:]
			}
		}
	}
	return crc
}

// crcChunkPool feeds StateCRC's packing buffer; StateCRC runs per poll on
// every served connection concurrently, so the scratch is pooled rather
// than global. Widths caps at 255 stages, so header+widths fit the chunk.
var crcChunkPool = sync.Pool{New: func() any { return new([4096]byte) }}

// DiffSnapshots computes the registers of cur that differ from base, as
// per-stage delta blocks in tree/stage/index order. ok is false when the
// snapshots do not share a geometry (no delta exists between them).
func DiffSnapshots(base, cur *Snapshot) (blocks []DeltaBlock, ok bool) {
	if base == nil || cur == nil || !base.SameGeometry(cur) {
		return nil, false
	}
	for t := range cur.Values {
		for l := range cur.Values[t] {
			bv, cv := base.Values[t][l], cur.Values[t][l]
			// Prescreen 16-value (64-byte) runs with a word-wide memory
			// compare over the slices' raw bytes; only runs that differ are
			// walked per register. Between polls most registers are
			// unchanged, so diff cost becomes proportional to the changed
			// blocks rather than the sketch size.
			bb, cb := sketch.BytesU32(bv), sketch.BytesU32(cv)
			var idx, val []uint32
			const run = 16
			for lo := 0; lo < len(cv); lo += run {
				end := lo + run
				if end > len(cv) {
					end = len(cv)
				}
				if bytes.Equal(bb[4*lo:4*end], cb[4*lo:4*end]) {
					continue
				}
				for i := lo; i < end; i++ {
					if cv[i] != bv[i] {
						idx = append(idx, uint32(i))
						val = append(val, cv[i])
					}
				}
			}
			if len(idx) > 0 {
				blocks = append(blocks, DeltaBlock{Tree: t, Stage: l, Indexes: idx, Values: val})
			}
		}
	}
	return blocks, true
}

// ApplyDelta returns a new snapshot: base with every block's registers
// overwritten. The base is not modified. Any block naming a tree, stage or
// index outside the base's geometry is an error — the delta was diffed
// against a different baseline and must not be merged.
func ApplyDelta(base *Snapshot, blocks []DeltaBlock) (*Snapshot, error) {
	out := base.Clone()
	for bi, b := range blocks {
		if b.Tree < 0 || b.Tree >= len(out.Values) {
			return nil, fmt.Errorf("collect: delta block %d names tree %d of %d", bi, b.Tree, len(out.Values))
		}
		if b.Stage < 0 || b.Stage >= len(out.Values[b.Tree]) {
			return nil, fmt.Errorf("collect: delta block %d names stage %d of %d", bi, b.Stage, len(out.Values[b.Tree]))
		}
		stage := out.Values[b.Tree][b.Stage]
		if len(b.Indexes) != len(b.Values) {
			return nil, fmt.Errorf("collect: delta block %d has %d indexes, %d values", bi, len(b.Indexes), len(b.Values))
		}
		for i, idx := range b.Indexes {
			if int(idx) >= len(stage) {
				return nil, fmt.Errorf("collect: delta block %d index %d outside stage of %d", bi, idx, len(stage))
			}
			stage[idx] = b.Values[i]
		}
	}
	return out, nil
}

// deltaBlocksEncodedSize is the exact encoded size of a delta-frame body
// holding blocks (used to pick delta vs full before encoding anything).
func deltaBlocksEncodedSize(blocks []DeltaBlock) int {
	n := 4 // block count
	for _, b := range blocks {
		n += 8 + 8*len(b.Indexes) // tree, stage, pad, count, entries
	}
	return deltaHeaderLen + n + deltaTrailerLen
}

// encodedSizeV2 is the exact size Encode would produce for the snapshot,
// computed without encoding.
func (s *Snapshot) encodedSizeV2() int {
	n := 16 + len(s.Widths) // header + width bytes
	for t := range s.Values {
		for l := range s.Values[t] {
			n += 4 + 4*len(s.Values[t][l])
		}
	}
	return n + 4 // CRC trailer
}

// Encode serializes the frame.
//
// Layout (all big-endian):
//
//	u32 magic "FCMD", u8 version(3), u8 flags, u16 pad,
//	u64 baseGen, u64 newGen, u32 stateCRC, u32 bodyLen,
//	body (full: a complete v2 snapshot; delta: u32 blockCount, then per
//	block u8 tree, u8 stage, u16 pad, u32 count, count × (u32 idx, u32 val)),
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
		dst = slices.Grow(dst, deltaHeaderLen+f.Snap.encodedSizeV2()+deltaTrailerLen)
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
			if len(b.Indexes) != len(b.Values) {
				return nil, fmt.Errorf("collect: delta block has %d indexes, %d values", len(b.Indexes), len(b.Values))
			}
			dst = append(dst, uint8(b.Tree), uint8(b.Stage), 0, 0)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(b.Indexes)))
			for i := range b.Indexes {
				dst = binary.BigEndian.AppendUint32(dst, b.Indexes[i])
				dst = binary.BigEndian.AppendUint32(dst, b.Values[i])
			}
		}
	}
	binary.BigEndian.PutUint32(dst[start+28:], uint32(len(dst)-bodyStart))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// DecodeDeltaFrame parses an encoded v3 frame, verifying the frame CRC
// before trusting any field. A full frame's embedded snapshot is decoded
// (its own CRC re-verified) and checked against the frame's StateCRC, so a
// decoded full frame is always internally consistent.
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
	f := &DeltaFrame{
		Full:     flags&deltaFlagFull != 0,
		BaseGen:  binary.BigEndian.Uint64(data[8:]),
		NewGen:   binary.BigEndian.Uint64(data[16:]),
		StateCRC: binary.BigEndian.Uint32(data[24:]),
	}
	bodyLen := binary.BigEndian.Uint32(data[28:])
	payload := data[deltaHeaderLen : len(data)-4]
	if int(bodyLen) != len(payload) {
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
	r := bytes.NewReader(payload)
	var nBlocks uint32
	if err := binary.Read(r, binary.BigEndian, &nBlocks); err != nil {
		return nil, fmt.Errorf("collect: delta block count: %w", err)
	}
	// Every block costs ≥ 8 bytes on the wire, so the remaining payload
	// bounds the count before any allocation proportional to it.
	if int64(nBlocks)*8 > int64(r.Len()) {
		return nil, fmt.Errorf("collect: %d delta blocks cannot fit %d body bytes", nBlocks, r.Len())
	}
	total := 0
	for bi := uint32(0); bi < nBlocks; bi++ {
		var bh struct {
			Tree  uint8
			Stage uint8
			Pad   uint16
			Count uint32
		}
		if err := binary.Read(r, binary.BigEndian, &bh); err != nil {
			return nil, fmt.Errorf("collect: delta block %d header: %w", bi, err)
		}
		if bh.Pad != 0 {
			return nil, fmt.Errorf("collect: delta block %d nonzero padding", bi)
		}
		if int64(bh.Count)*8 > int64(r.Len()) {
			return nil, fmt.Errorf("collect: delta block %d claims %d entries beyond body", bi, bh.Count)
		}
		total += int(bh.Count) * 8
		if total > maxSaneBytes {
			return nil, fmt.Errorf("collect: delta claims over %dB of entries", maxSaneBytes)
		}
		b := DeltaBlock{
			Tree:    int(bh.Tree),
			Stage:   int(bh.Stage),
			Indexes: make([]uint32, bh.Count),
			Values:  make([]uint32, bh.Count),
		}
		for i := uint32(0); i < bh.Count; i++ {
			var entry [8]byte
			if _, err := r.Read(entry[:]); err != nil {
				return nil, fmt.Errorf("collect: delta block %d entry %d: %w", bi, i, err)
			}
			b.Indexes[i] = binary.BigEndian.Uint32(entry[0:])
			b.Values[i] = binary.BigEndian.Uint32(entry[4:])
		}
		f.Blocks = append(f.Blocks, b)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("collect: %d trailing bytes after delta blocks", r.Len())
	}
	return f, nil
}

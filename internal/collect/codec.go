// Package collect implements the control-plane collection path of the FCM
// framework (§8.1: "we read FCM-Sketch registers from the data plane in
// batch using runtime APIs"): a compact binary codec for sketch register
// snapshots and a TCP service over which a controller pulls them.
package collect

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
)

// codec constants.
const (
	snapshotMagic = 0x46434d53 // "FCMS"
	// Version 3 stores every stage at its lane width (the sketch's
	// resident layout) and carries the counter encoding. Version 2 (a
	// u32-per-counter body) is retired: it is neither encoded nor decoded.
	snapshotVersion = 3
	// snapshotFlagBit marks a snapshot of a flag-bit encoded sketch
	// (core.Config.FlagBitIndicator); every other flag bit is reserved.
	snapshotFlagBit = 0x01
	// snapshotHeaderLen is the fixed prefix before the width bytes:
	// magic(4), version(1), trees(1), stages(1), flags(1), k(4), w1(4).
	snapshotHeaderLen = 16
	// maxSaneBytes bounds decoded allocations against corrupt headers.
	maxSaneBytes = 1 << 30
)

// castagnoli is the CRC-32C table for the snapshot integrity trailer.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Snapshot is a register dump of an FCM-Sketch: its geometry, its counter
// encoding and every register, each stage at its own width. It carries
// everything the control plane needs (virtual-counter conversion, EM,
// cardinality); restoring a queryable sketch additionally requires the
// data plane's hash family.
type Snapshot struct {
	K      int
	Trees  int
	W1     int
	Widths []int
	// FlagBit records the counter encoding: set for the explicit
	// overflow-flag encoding (core.Config.FlagBitIndicator), clear for the
	// max-value marker.
	FlagBit bool
	// Regs holds every register in tree, stage, index order, each stage
	// at its lane width (core.LaneBytes) — one byte per counter for
	// stages of up to 8 bits, two up to 16, four above — little-endian. Stage l of every tree
	// holds W1/K^l counters, so the geometry alone fixes the layout.
	Regs []byte
}

// stageSpan locates one stage inside Snapshot.Regs: n counters of size
// bytes each, starting at off.
type stageSpan struct{ off, n, size int }

// bytes returns the stage's slice of regs.
func (sp stageSpan) bytes(regs []byte) []byte { return regs[sp.off : sp.off+sp.n*sp.size] }

// eachStage calls fn for every stage in Regs order.
func (s *Snapshot) eachStage(fn func(t, l int, sp stageSpan)) {
	off := 0
	for t := 0; t < s.Trees; t++ {
		n := s.W1
		for l, b := range s.Widths {
			size := core.LaneBytes(b)
			fn(t, l, stageSpan{off: off, n: n, size: size})
			off += n * size
			n /= s.K
		}
	}
}

// span returns the location of tree t, stage l.
func (s *Snapshot) span(t, l int) stageSpan {
	var out stageSpan
	s.eachStage(func(ti, li int, sp stageSpan) {
		if ti == t && li == l {
			out = sp
		}
	})
	return out
}

// regsLen is the length of Regs the geometry implies.
func (s *Snapshot) regsLen() int {
	per, n := 0, s.W1
	for _, b := range s.Widths {
		per += n * core.LaneBytes(b)
		n /= s.K
	}
	return s.Trees * per
}

// checkGeometry reports why the snapshot's geometry is not one core.New
// builds — every snapshot decoded is restorable — or nil. It also bounds
// the register bytes the geometry implies.
func (s *Snapshot) checkGeometry() error {
	if s.Trees <= 0 || s.Trees > 255 || len(s.Widths) < 2 || len(s.Widths) > 255 {
		return fmt.Errorf("collect: snapshot geometry out of range: trees=%d stages=%d", s.Trees, len(s.Widths))
	}
	if s.K < 2 || s.W1 <= 0 {
		return fmt.Errorf("collect: snapshot geometry out of range: k=%d w1=%d", s.K, s.W1)
	}
	for i, b := range s.Widths {
		if b < 2 || b > 32 || (i > 0 && b <= s.Widths[i-1]) {
			return fmt.Errorf("collect: snapshot stage widths %v not increasing within [2,32]", s.Widths)
		}
	}
	for n, l := s.W1, 1; l < len(s.Widths); l++ {
		if n%s.K != 0 {
			return fmt.Errorf("collect: snapshot w1=%d not a multiple of k^%d", s.W1, len(s.Widths)-1)
		}
		n /= s.K
	}
	if int64(s.W1)*int64(s.Trees)*4*2 > maxSaneBytes {
		return fmt.Errorf("collect: snapshot claims over %dB of registers", maxSaneBytes)
	}
	return nil
}

// TakeSnapshot copies the registers out of a sketch.
func TakeSnapshot(s *core.Sketch) *Snapshot {
	return TakeSnapshotInto(nil, s)
}

// TakeSnapshotInto copies the registers out of a sketch into snap — one
// copy per stage at its lane width — reusing snap's width and register
// buffers when they have the capacity, so a reused snapshot allocates
// nothing. Pass nil to build a fresh snapshot. The returned snapshot owns
// its registers (nothing aliases sketch state) but shares buffers with
// snap, so callers that retain snapshots across polls must not pass the
// retained one back in.
func TakeSnapshotInto(snap *Snapshot, s *core.Sketch) *Snapshot {
	if snap == nil {
		snap = &Snapshot{}
	}
	geometryOf(snap, s)
	snap.Regs = slices.Grow(snap.Regs[:0], s.ResidentBytes())
	for t := 0; t < snap.Trees; t++ {
		for l := range snap.Widths {
			snap.Regs = s.AppendStageBytes(snap.Regs, t, l)
		}
	}
	return snap
}

// geometryOf sets g's geometry fields to sk's, reusing g's widths.
func geometryOf(g *Snapshot, sk *core.Sketch) {
	g.K, g.Trees, g.W1, g.FlagBit = sk.K(), sk.NumTrees(), sk.LeafWidth(), sk.FlagBitIndicator()
	g.Widths = g.Widths[:0]
	for l := 0; l < sk.Depth(); l++ {
		g.Widths = append(g.Widths, sk.StageWidth(l))
	}
}

// Restore rebuilds a queryable sketch from the snapshot, in the counter
// encoding the snapshot was taken in. fam must be the data plane's hash
// family for count queries to be meaningful; pass nil to get a sketch
// that only supports control-plane conversion.
func (s *Snapshot) Restore(fam hashing.Family) (*core.Sketch, error) {
	sk, err := core.New(core.Config{
		K:                s.K,
		Trees:            s.Trees,
		Widths:           s.Widths,
		LeafWidth:        s.W1,
		Hash:             fam,
		FlagBitIndicator: s.FlagBit,
	})
	if err != nil {
		return nil, fmt.Errorf("collect: restore: %w", err)
	}
	if want := s.regsLen(); len(s.Regs) != want {
		return nil, fmt.Errorf("collect: restore: %dB of registers, geometry holds %d", len(s.Regs), want)
	}
	s.eachStage(func(t, l int, sp stageSpan) {
		if err == nil {
			err = sk.SetStageBytes(t, l, sp.bytes(s.Regs))
		}
	})
	if err != nil {
		return nil, fmt.Errorf("collect: restore: %w", err)
	}
	return sk, nil
}

// VirtualCounters converts the snapshot via a restored sketch, the §4.1
// control-plane step.
func (s *Snapshot) VirtualCounters() ([][]core.VirtualCounter, error) {
	sk, err := s.Restore(nil)
	if err != nil {
		return nil, err
	}
	return sk.VirtualCounters(), nil
}

// Encode serializes the snapshot as FCMS version 3.
//
// Layout (header integers big-endian):
//
//	u32 magic "FCMS", u8 version(3), u8 trees, u8 stages,
//	u8 flags (bit 0: flag-bit counter encoding), u32 k, u32 w1,
//	stages × u8 width-bits,
//	the registers: Snapshot.Regs verbatim (tree/stage/index order, each
//	stage at its lane width, little-endian; the length follows from the
//	geometry),
//	u32 crc32c over everything above
func (s *Snapshot) Encode() ([]byte, error) {
	return s.AppendEncode(nil)
}

// encodedSize is the exact size Encode produces for the snapshot.
func (s *Snapshot) encodedSize() int {
	return snapshotHeaderLen + len(s.Widths) + len(s.Regs) + 4
}

// AppendEncode serializes the snapshot (see Encode for the layout),
// appending to dst and returning the extended slice. The bytes produced
// are identical to Encode's; only the destination differs, letting serve
// paths reuse one response buffer across polls.
func (s *Snapshot) AppendEncode(dst []byte) ([]byte, error) {
	if err := s.checkGeometry(); err != nil {
		return nil, err
	}
	if want := s.regsLen(); len(s.Regs) != want {
		return nil, fmt.Errorf("collect: snapshot holds %dB of registers, geometry implies %d", len(s.Regs), want)
	}
	var flags uint8
	if s.FlagBit {
		flags |= snapshotFlagBit
	}
	start := len(dst)
	dst = slices.Grow(dst, s.encodedSize())
	dst = binary.BigEndian.AppendUint32(dst, snapshotMagic)
	dst = append(dst, snapshotVersion, uint8(s.Trees), uint8(len(s.Widths)), flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.K))
	dst = binary.BigEndian.AppendUint32(dst, uint32(s.W1))
	for _, b := range s.Widths {
		dst = append(dst, uint8(b))
	}
	dst = append(dst, s.Regs...)
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// DecodeSnapshot parses an encoded snapshot, verifying the CRC-32C
// trailer first so corruption anywhere in the payload is rejected before
// any field is trusted. It reads FCMS version 3 only; the retired
// version-2 body fails as an unsupported version.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("collect: snapshot of %dB too short for checksum", len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if want, got := binary.BigEndian.Uint32(trailer), crc32.Checksum(body, castagnoli); want != got {
		return nil, fmt.Errorf("collect: snapshot checksum mismatch (corrupt payload): got 0x%08x want 0x%08x", got, want)
	}
	if len(body) < snapshotHeaderLen {
		return nil, fmt.Errorf("collect: snapshot header of %dB truncated", len(body))
	}
	if m := binary.BigEndian.Uint32(body); m != snapshotMagic {
		return nil, fmt.Errorf("collect: bad snapshot magic 0x%08x", m)
	}
	version, stages, flags := body[4], int(body[6]), body[7]
	if version != snapshotVersion {
		return nil, fmt.Errorf("collect: unsupported snapshot version %d", version)
	}
	if flags&^uint8(snapshotFlagBit) != 0 {
		return nil, fmt.Errorf("collect: unknown snapshot flags 0x%02x", flags)
	}
	s := &Snapshot{
		K:       int(binary.BigEndian.Uint32(body[8:])),
		Trees:   int(body[5]),
		W1:      int(binary.BigEndian.Uint32(body[12:])),
		FlagBit: flags&snapshotFlagBit != 0,
	}
	rest := body[snapshotHeaderLen:]
	if len(rest) < stages {
		return nil, fmt.Errorf("collect: snapshot widths truncated")
	}
	s.Widths = make([]int, stages)
	for l := range s.Widths {
		s.Widths[l] = int(rest[l])
	}
	rest = rest[stages:]
	if err := s.checkGeometry(); err != nil {
		return nil, err
	}
	if n := s.regsLen(); len(rest) != n {
		return nil, fmt.Errorf("collect: snapshot carries %dB of registers, geometry holds %d", len(rest), n)
	}
	s.Regs = slices.Clone(rest)
	return s, nil
}

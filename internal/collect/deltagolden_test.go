package collect

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"strings"
	"testing"
)

// FCMD version-4 golden vectors, pinned against the same goldenSketch the
// snapshot vectors use. Any codec change that alters these bytes breaks
// deployed collectors mid-fleet and must bump the version instead of
// silently shifting the layout.
//
// Shared layout (big-endian): magic "FCMD", version 4, flags, pad,
// baseGen u64, newGen u64, stateCRC u32 (CRC-32C over the complete
// post-apply register state), bodyLen u32, body, CRC-32C trailer over
// everything before it.
const (
	// goldenEmptyDeltaHex is the nothing-changed frame: baseGen = newGen
	// = 7, zero delta blocks, state CRC 0x32bd3486 of the unchanged golden
	// registers. At 40 bytes it is the steady-state cost of polling an
	// idle switch — versus 64 bytes for the full golden frame (and about a
	// megabyte for the paper-sized geometry).
	goldenEmptyDeltaHex = "46434d44040000000000000000000007000000000000000732bd348600000004000000000fd26a10"

	// goldenDeltaHex carries one changed register: flow 3 of the golden
	// sketch incremented by 2, which lands in tree 0, stage 1, index 1
	// (the leaf stage is already saturated at its overflow marker, so only
	// the stage-1 counter moves, 2 → 4). baseGen 7 → newGen 9, one block
	// (tree 0, stage 1, one-byte values, pad, count 1), index 1, value 04.
	goldenDeltaHex = "46434d440400000000000000000000070000000000000009141cd36e0000001100000001000101000000000100000001049ec0ccaa"

	// goldenFullDeltaHex is the fallback frame: flags bit0 set, baseGen 0,
	// and the body is the complete FCMS version-3 encoding (magic "FCMS"
	// and its own CRC trailer) of the post-update golden sketch.
	goldenFullDeltaHex = "46434d440401000000000000000000000000000000000009141cd36e0000001c46434d530301020000000002000000040204030303020b04c1ed6ea2e23b6cfe"

	// retiredDeltaV3Hex is an FCMD version-3 frame with valid checksums —
	// the empty delta over the golden registers as the previous codec
	// encoded it. Version 4 decoders must reject it.
	retiredDeltaV3Hex = "46434d440300000000000000000000070000000000000007a24a7eba0000000400000000e6d30518"

	// retiredSnapshotV2Hex is the FCMS version-2 encoding of the golden
	// sketch's snapshot, CRC-32C trailer included — the u32-per-counter
	// body the codec wrote before version 3. Nothing decodes it any more.
	//
	// Layout (big-endian): magic "FCMS", version 2, trees 1, stages 2, pad,
	// k=2, w1=4, width bits {2,4}, then per-stage counts and values
	// (leaves [3 3 3 2] — 3 is the 2-bit overflow marker — and stage-1
	// [11 2]), then CRC-32C 0xdf55663b over everything before it.
	retiredSnapshotV2Hex = "46434d5302010200000000020000000402040000000400000003000000030000000300000002000000020000000b00000002df55663b"
)

// goldenDeltaSketches returns the (base, cur) snapshot pair the delta
// vectors were produced from.
func goldenDeltaSketches(t *testing.T) (*Snapshot, *Snapshot) {
	t.Helper()
	base := TakeSnapshot(goldenSketch(t))
	s := goldenSketch(t)
	var key [4]byte
	binary.BigEndian.PutUint32(key[:], 3)
	s.Update(key[:], 2)
	return base, TakeSnapshot(s)
}

func TestGoldenDeltaFrameEncoding(t *testing.T) {
	base, cur := goldenDeltaSketches(t)

	empty := &DeltaFrame{BaseGen: 7, NewGen: 7, StateCRC: base.StateCRC()}
	eb, err := empty.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(eb); got != goldenEmptyDeltaHex {
		t.Fatalf("empty-delta frame drifted from pinned vector:\n got %s\nwant %s", got, goldenEmptyDeltaHex)
	}

	blocks, ok := DiffSnapshots(base, cur)
	if !ok {
		t.Fatal("golden snapshots refuse to diff")
	}
	delta := &DeltaFrame{BaseGen: 7, NewGen: 9, StateCRC: cur.StateCRC(), Blocks: blocks}
	db, err := delta.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(db); got != goldenDeltaHex {
		t.Fatalf("delta frame drifted from pinned vector:\n got %s\nwant %s", got, goldenDeltaHex)
	}

	full := &DeltaFrame{Full: true, NewGen: 9, StateCRC: cur.StateCRC(), Snap: cur}
	fb, err := full.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(fb); got != goldenFullDeltaHex {
		t.Fatalf("full frame drifted from pinned vector:\n got %s\nwant %s", got, goldenFullDeltaHex)
	}

	// The full frame's body must be exactly the version-3 snapshot
	// encoding of the post-update sketch — the fallback rung IS a plain
	// snapshot, not a near-copy.
	body := fb[deltaHeaderLen : len(fb)-deltaTrailerLen]
	plain, err := cur.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, plain) {
		t.Fatalf("full-frame body is not the snapshot encoding:\n got %x\nwant %x", body, plain)
	}
}

func TestGoldenDeltaFrameDecodes(t *testing.T) {
	base, cur := goldenDeltaSketches(t)

	data, _ := hex.DecodeString(goldenDeltaHex)
	frame, err := DecodeDeltaFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	if frame.Full || frame.BaseGen != 7 || frame.NewGen != 9 {
		t.Fatalf("decoded header drifted: %+v", frame)
	}
	applied, err := ApplyDelta(base, frame.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	if applied.StateCRC() != frame.StateCRC {
		t.Fatal("applying the golden delta does not reproduce the pinned state CRC")
	}
	appliedSk, err := applied.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	curSk, err := cur.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := curSk.FirstRegisterDiff(appliedSk); d != "" {
		t.Fatalf("golden delta does not reconstruct the golden registers: %s", d)
	}

	edata, _ := hex.DecodeString(goldenEmptyDeltaHex)
	eframe, err := DecodeDeltaFrame(edata)
	if err != nil {
		t.Fatal(err)
	}
	if len(eframe.Blocks) != 0 || eframe.BaseGen != eframe.NewGen {
		t.Fatalf("empty-delta frame decoded as non-empty: %+v", eframe)
	}
	if eframe.StateCRC != base.StateCRC() {
		t.Fatal("empty-delta state CRC does not pin the unchanged registers")
	}

	fdata, _ := hex.DecodeString(goldenFullDeltaHex)
	fframe, err := DecodeDeltaFrame(fdata)
	if err != nil {
		t.Fatal(err)
	}
	if !fframe.Full || fframe.Snap == nil {
		t.Fatalf("full frame decoded as %+v", fframe)
	}
	fullSk, err := fframe.Snap.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := curSk.FirstRegisterDiff(fullSk); d != "" {
		t.Fatalf("full frame does not carry the golden registers: %s", d)
	}
}

// TestGoldenDeltaRejectsEveryBitFlip: the frame CRC covers every byte of
// every version-4 frame shape — header fields, delta entries, the embedded full
// snapshot, and the trailer itself.
func TestGoldenDeltaRejectsEveryBitFlip(t *testing.T) {
	for _, vec := range []struct {
		name string
		hex  string
	}{
		{"empty", goldenEmptyDeltaHex},
		{"delta", goldenDeltaHex},
		{"full", goldenFullDeltaHex},
	} {
		data, err := hex.DecodeString(vec.hex)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			corrupt := append([]byte(nil), data...)
			corrupt[i] ^= 0x10
			if _, err := DecodeDeltaFrame(corrupt); err == nil {
				t.Fatalf("%s frame: decode accepted a bit flip at byte %d", vec.name, i)
			}
		}
	}
}

// TestRetiredFrameVersionsRejected pins the upgrade rule: both ends of a
// collection link move together, and a frame of a retired version —
// FCMD version 3, FCMW version 1, a bare FCMS version-2 snapshot, or a
// version-4 full frame embedding one — is a decode error even with every
// checksum valid, never a guess at its layout.
func TestRetiredFrameVersionsRejected(t *testing.T) {
	v3, _ := hex.DecodeString(retiredDeltaV3Hex)
	if _, err := DecodeDeltaFrame(v3); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("FCMD version 3 frame: err = %v, want an unsupported-version error", err)
	}
	w1, _ := hex.DecodeString(retiredWindowV1Hex)
	if _, _, err := DecodeWindow(w1); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("FCMW version 1 frame: err = %v, want an unsupported-version error", err)
	}

	v2, _ := hex.DecodeString(retiredSnapshotV2Hex)
	if _, err := DecodeSnapshot(v2); err == nil || !strings.Contains(err.Error(), "unsupported snapshot version 2") {
		t.Fatalf("FCMS version 2 snapshot: err = %v, want an unsupported-version error", err)
	}

	// A version-4 full frame around the version-2 body, with a correct
	// frame CRC and the state CRC of the registers it holds — the golden
	// registers the version-3 vector carries.
	v3snap, _ := hex.DecodeString(goldenSnapshotV3Hex)
	snap, err := DecodeSnapshot(v3snap)
	if err != nil {
		t.Fatal(err)
	}
	frame := binary.BigEndian.AppendUint32(nil, deltaMagic)
	frame = append(frame, deltaVersion, deltaFlagFull, 0, 0)
	frame = binary.BigEndian.AppendUint64(frame, 0)
	frame = binary.BigEndian.AppendUint64(frame, 1)
	frame = binary.BigEndian.AppendUint32(frame, snap.StateCRC())
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(v2)))
	frame = append(frame, v2...)
	frame = binary.BigEndian.AppendUint32(frame, crc32.Checksum(frame, castagnoli))
	if _, err := DecodeDeltaFrame(frame); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("full frame embedding FCMS version 2: err = %v, want an unsupported-version error", err)
	}
}

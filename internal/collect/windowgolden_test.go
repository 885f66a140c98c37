package collect

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"testing"
)

// goldenWindowMeta is the fixed temporal metadata the window-frame golden
// vector was produced with: a level-1 bucket spanning windows 3..4 of a
// five-second interval, 21 packets (the golden sketch's total count).
var goldenWindowMeta = WindowMeta{
	Level:           1,
	Span:            2,
	FirstGeneration: 3,
	Generation:      4,
	MinTimeUnixNano: 1_700_000_000_000_000_000,
	MaxTimeUnixNano: 1_700_000_005_000_000_000,
	Packets:         21,
}

// goldenWindowHex is the exact FCMW version-2 encoding of
// goldenWindowMeta over goldenSketch's snapshot, outer CRC-32C trailer
// included. It pins the window frame wire format: any change that alters
// these bytes breaks decoding for every deployed collector and must bump
// windowVersion instead of silently shifting the layout.
//
// Layout (big-endian): magic "FCMW", version 2, level 1, reserved 0,
// span 2, firstGen 3, gen 4, minTime/maxTime unix-nanos, packets 21,
// bodyLen 28, the FCMS version-3 snapshot body verbatim, then the outer
// CRC-32C.
const goldenWindowHex = "46434d5702010000000000020000000000000003000000000000000417979cfe362a000017979cff602ff20000000000000000150000001c" +
	"46434d530301020000000002000000040204030303020b02e74c894a" +
	"f95f2207"

// retiredWindowV1Hex is the FCMW version-1 frame of the same window — an
// FCMS version-2 body — with valid checksums. Version-2 decoders must
// reject it.
const retiredWindowV1Hex = "46434d5701010000000000020000000000000003000000000000000417979cfe362a000017979cff602ff20000000000000000150000003646434d" +
	"5302010200000000020000000402040000000400000003000000030000000300000002000000020000000b00000002df55663b" +
	"732f8441"

func TestGoldenWindowFrameEncoding(t *testing.T) {
	want, err := hex.DecodeString(goldenWindowHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeWindow(goldenWindowMeta, TakeSnapshot(goldenSketch(t)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("window frame encoding drifted from the pinned golden vector:\n got %x\nwant %x", got, want)
	}
	// The outer trailer must be CRC-32C of everything before it — pinned
	// explicitly so the integrity check can't silently become a no-op.
	payload, trailer := got[:len(got)-4], got[len(got)-4:]
	if sum := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)); binary.BigEndian.Uint32(trailer) != sum {
		t.Fatalf("trailer 0x%x is not the CRC-32C of the payload (0x%08x)", trailer, sum)
	}
}

// TestGoldenWindowFrameEmbedsPlainSnapshot pins the body-identity claim:
// the sketch bytes inside a window frame are the plain version-3 snapshot
// encoding, byte-for-byte — the temporal layer rides along without
// forking the register wire format.
func TestGoldenWindowFrameEmbedsPlainSnapshot(t *testing.T) {
	frame, err := hex.DecodeString(goldenWindowHex)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := hex.DecodeString(goldenSnapshotV3Hex)
	if err != nil {
		t.Fatal(err)
	}
	body := frame[windowHeaderLen : len(frame)-4]
	if !bytes.Equal(body, plain) {
		t.Fatalf("embedded body is not the plain snapshot:\n got %x\nwant %x", body, plain)
	}
}

func TestGoldenWindowFrameDecodes(t *testing.T) {
	data, _ := hex.DecodeString(goldenWindowHex)
	meta, snap, err := DecodeWindow(data)
	if err != nil {
		t.Fatal(err)
	}
	if meta != goldenWindowMeta {
		t.Fatalf("decoded meta %+v drifted from %+v", meta, goldenWindowMeta)
	}
	if snap.K != 2 || snap.Trees != 1 || snap.W1 != 4 || len(snap.Widths) != 2 {
		t.Fatalf("decoded geometry %+v drifted", snap)
	}
	reenc, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := hex.DecodeString(goldenSnapshotV3Hex); !bytes.Equal(reenc, want) {
		t.Fatalf("decoded body does not round-trip to the plain snapshot:\n got %x\nwant %x", reenc, want)
	}
}

// TestGoldenWindowFrameRejectsEveryBitFlip: the outer CRC must catch a
// flip at any byte position — temporal metadata, embedded body (whose
// inner CRC alone would miss metadata corruption) and the trailer itself.
func TestGoldenWindowFrameRejectsEveryBitFlip(t *testing.T) {
	data, _ := hex.DecodeString(goldenWindowHex)
	for i := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x10
		if _, _, err := DecodeWindow(corrupt); err == nil {
			t.Fatalf("decode accepted a bit flip at byte %d", i)
		}
	}
}

// TestWindowFrameRejectsBadMeta pins the encoder-side validation: a zero
// span or an inverted generation range must be refused before any bytes
// are produced, and the decoder must refuse the same shapes even with a
// valid CRC.
func TestWindowFrameRejectsBadMeta(t *testing.T) {
	snap := TakeSnapshot(goldenSketch(t))
	if _, err := EncodeWindow(WindowMeta{Span: 0, FirstGeneration: 1, Generation: 1}, snap); err == nil {
		t.Fatal("encoder accepted a zero span")
	}
	if _, err := EncodeWindow(WindowMeta{Span: 1, FirstGeneration: 5, Generation: 4}, snap); err == nil {
		t.Fatal("encoder accepted inverted generations")
	}
}

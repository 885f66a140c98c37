package collect

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"net"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
)

// goldenSnapshotHex is the exact v2 encoding of goldenSketch's snapshot,
// CRC-32C trailer included. It pins the wire format: any codec change that
// alters these bytes breaks decoding for every deployed collector and must
// bump snapshotVersion instead of silently shifting the layout.
//
// Layout (big-endian): magic "FCMS", version 2, trees 1, stages 2, pad,
// k=2, w1=4, width bits {2,4}, then per-stage counts and values
// (leaves [3 3 3 2] — 3 is the 2-bit overflow marker — and stage-1
// [11 2]), then CRC-32C 0xdf55663b over everything before it.
const goldenSnapshotHex = "46434d5302010200000000020000000402040000000400000003000000030000000300000002000000020000000b00000002df55663b"

// goldenSketch builds the fixed sketch the golden vector was produced
// from: 6 flows with sizes 1..6 through a tiny 2-ary geometry whose leaf
// stage overflows, so the encoding exercises marker values too.
func goldenSketch(t *testing.T) *core.Sketch {
	t.Helper()
	s, err := core.New(core.Config{
		K: 2, Trees: 1, Widths: []int{2, 4}, LeafWidth: 4,
		Hash: hashing.NewBobFamily(0xfc3141 ^ 77),
	})
	if err != nil {
		t.Fatal(err)
	}
	var key [4]byte
	for f := uint32(0); f < 6; f++ {
		binary.BigEndian.PutUint32(key[:], f)
		s.Update(key[:], uint64(f)+1)
	}
	return s
}

func TestGoldenSnapshotEncoding(t *testing.T) {
	want, err := hex.DecodeString(goldenSnapshotHex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TakeSnapshot(goldenSketch(t)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding drifted from the pinned v2 golden vector:\n got %x\nwant %x", got, want)
	}
	// The trailer must be CRC-32C (Castagnoli) of the body — pinned
	// explicitly so the integrity check can't silently become a no-op.
	body, trailer := got[:len(got)-4], got[len(got)-4:]
	if sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)); binary.BigEndian.Uint32(trailer) != sum {
		t.Fatalf("trailer 0x%x is not the CRC-32C of the body (0x%08x)", trailer, sum)
	}
	if binary.BigEndian.Uint32(trailer) != 0xdf55663b {
		t.Fatalf("trailer 0x%x drifted from pinned 0xdf55663b", trailer)
	}
}

func TestGoldenSnapshotDecodes(t *testing.T) {
	data, _ := hex.DecodeString(goldenSnapshotHex)
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if snap.K != 2 || snap.Trees != 1 || snap.W1 != 4 || len(snap.Widths) != 2 {
		t.Fatalf("decoded geometry %+v drifted", snap)
	}
	restored, err := snap.Restore(hashing.NewBobFamily(0xfc3141 ^ 77))
	if err != nil {
		t.Fatal(err)
	}
	ref := goldenSketch(t)
	if d := ref.FirstRegisterDiff(restored); d != "" {
		t.Fatalf("golden vector does not restore the original registers: %s", d)
	}
}

// TestGoldenSnapshotRejectsEveryBitFlip: the CRC trailer must catch a flip
// at any byte position — header, counter values and the trailer itself.
func TestGoldenSnapshotRejectsEveryBitFlip(t *testing.T) {
	data, _ := hex.DecodeString(goldenSnapshotHex)
	for i := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x10
		if _, err := DecodeSnapshot(corrupt); err == nil {
			t.Fatalf("decode accepted a bit flip at byte %d", i)
		}
	}
}

// TestGoldenWireExchange pins the full TCP exchange: the 5-byte
// OpReadSketch request frame and the exact response frame (length prefix,
// status byte, golden payload) a server must produce for the golden
// sketch.
func TestGoldenWireExchange(t *testing.T) {
	payload, _ := hex.DecodeString(goldenSnapshotHex)
	wantResp := make([]byte, 0, 5+len(payload))
	wantResp = binary.BigEndian.AppendUint32(wantResp, uint32(1+len(payload)))
	wantResp = append(wantResp, 0 /* statusOK */)
	wantResp = append(wantResp, payload...)

	srv, err := NewServer("127.0.0.1:0", NewLockedSketch(goldenSketch(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	request := []byte{0, 0, 0, 1, OpReadSketch}
	if _, err := conn.Write(request); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(wantResp))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("reading response: %v", err)
	}
	if !bytes.Equal(got, wantResp) {
		t.Fatalf("wire exchange drifted from golden frame:\n got %x\nwant %x", got, wantResp)
	}
}

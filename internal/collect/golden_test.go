package collect

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"net"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
)

// goldenSnapshotV3Hex is the exact FCMS version-3 encoding of the same
// snapshot. It pins the wire format: any codec change that alters these
// bytes breaks decoding for every deployed collector and must bump
// snapshotVersion instead of silently shifting the layout.
//
// Layout: magic "FCMS", version 3, trees 1, stages 2, flags 0 (marker
// encoding), k=2, w1=4 (big-endian), width bits {2,4}, then the registers
// at lane width — both stages fit one byte per counter, so leaves
// 03 03 03 02 and stage-1 0b 02 — then CRC-32C 0xe74c894a over
// everything before it.
const goldenSnapshotV3Hex = "46434d530301020000000002000000040204030303020b02e74c894a"

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
	want, err := hex.DecodeString(goldenSnapshotV3Hex)
	if err != nil {
		t.Fatal(err)
	}
	got, err := TakeSnapshot(goldenSketch(t)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding drifted from the pinned version-3 golden vector:\n got %x\nwant %x", got, want)
	}
	// The trailer must be CRC-32C (Castagnoli) of the body — pinned
	// explicitly so the integrity check can't silently become a no-op.
	body, trailer := got[:len(got)-4], got[len(got)-4:]
	if sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)); binary.BigEndian.Uint32(trailer) != sum {
		t.Fatalf("trailer 0x%x is not the CRC-32C of the body (0x%08x)", trailer, sum)
	}
	if binary.BigEndian.Uint32(trailer) != 0xe74c894a {
		t.Fatalf("trailer 0x%x drifted from pinned 0xe74c894a", trailer)
	}
}

// TestGoldenSnapshotV3Decodes: the version-3 vector restores the golden
// registers.
func TestGoldenSnapshotV3Decodes(t *testing.T) {
	data, _ := hex.DecodeString(goldenSnapshotV3Hex)
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := snap.Restore(hashing.NewBobFamily(0xfc3141 ^ 77))
	if err != nil {
		t.Fatal(err)
	}
	if d := goldenSketch(t).FirstRegisterDiff(restored); d != "" {
		t.Fatalf("version-3 golden vector does not restore the original registers: %s", d)
	}
}

// TestGoldenSnapshotV3RejectsEveryBitFlip: the CRC trailer catches a flip
// at any byte of the version-3 vector — header, register bytes and the
// trailer itself.
func TestGoldenSnapshotV3RejectsEveryBitFlip(t *testing.T) {
	data, _ := hex.DecodeString(goldenSnapshotV3Hex)
	for i := range data {
		corrupt := append([]byte(nil), data...)
		corrupt[i] ^= 0x10
		if _, err := DecodeSnapshot(corrupt); err == nil {
			t.Fatalf("decode accepted a bit flip at byte %d", i)
		}
	}
}

// TestGoldenWireExchange pins the full TCP exchange of a first read: the
// 19-byte no-baseline OpReadDelta request frame and the exact response
// frame (length prefix, status byte, FCMD version-5 full frame) a server
// must produce for the golden sketch. The full frame's body is the golden
// geometry and then the golden snapshot's registers verbatim.
func TestGoldenWireExchange(t *testing.T) {
	// Length 19, OpReadDelta, session ID 0x0102030405060708, no baseline,
	// acked generation 0, trailing zero byte.
	request, _ := hex.DecodeString("00000013" + "03" + "0102030405060708" + "00" + "0000000000000000" + "00")
	// Magic "FCMD", version 5, flags full, pad, baseGen 0, newGen 0 (the
	// locked source's writes bypassed it), state CRC of the golden
	// registers, body length 20.
	header, _ := hex.DecodeString("46434d440501000000000000000000000000000000000000" + "32bd3486" + "00000014")
	// Trees 1, stages 2, flags 0, pad, k 2, w1 4, widths {2,4}, then the
	// registers of goldenSnapshotV3Hex.
	payload, _ := hex.DecodeString("01020000" + "00000002" + "00000004" + "0204" + "030303020b02")
	trailer, _ := hex.DecodeString("a2d82de8")
	frameLen := len(header) + len(payload) + len(trailer)
	wantResp := make([]byte, 0, 5+frameLen)
	wantResp = binary.BigEndian.AppendUint32(wantResp, uint32(1+frameLen))
	wantResp = append(wantResp, 0 /* statusOK */)
	wantResp = append(wantResp, header...)
	wantResp = append(wantResp, payload...)
	wantResp = append(wantResp, trailer...)
	if sum := crc32.Checksum(wantResp[5:5+frameLen-4], crc32.MakeTable(crc32.Castagnoli)); binary.BigEndian.Uint32(trailer) != sum {
		t.Fatalf("pinned trailer 0x%x is not the CRC-32C of the frame (0x%08x)", trailer, sum)
	}

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
	if _, err := conn.Write(request); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrame(conn)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	got := append(binary.BigEndian.AppendUint32(nil, uint32(len(resp))), resp...)
	if !bytes.Equal(got, wantResp) {
		t.Fatalf("wire exchange drifted from golden frame:\n got %x\nwant %x", got, wantResp)
	}
}

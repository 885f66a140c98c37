package collect

import (
	"bytes"
	"encoding/hex"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
)

// FuzzDeltaFrame fuzzes the FCMD delta frame as the client consumes it:
// decode, then the client's apply gate against a fixed baseline. The
// invariant is the protocol's core promise — every mutation either decodes
// to a frame whose application reproduces exactly the state its CRC pins,
// or is rejected (which in the protocol means falling back to a full
// snapshot). There is no third outcome: a wrong merge would require a
// frame that passes the frame CRC, applies cleanly, and matches the state
// CRC while encoding different registers — which is what the two CRCs
// exist to rule out.
func FuzzDeltaFrame(f *testing.F) {
	for _, seed := range deltaFrameSeeds() {
		f.Add(seed)
	}
	base := baselineForFuzz()
	baseCRC := base.StateCRC()

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, err := DecodeDeltaFrame(data)
		if err != nil {
			return // rejected: the client falls back to a full snapshot
		}
		// Anything that decoded must round-trip.
		re, err := frame.Encode()
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		again, err := DecodeDeltaFrame(re)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if again.Full != frame.Full || again.BaseGen != frame.BaseGen ||
			again.NewGen != frame.NewGen || again.StateCRC != frame.StateCRC {
			t.Fatal("frame header changed across round trip")
		}
		if frame.Full {
			// DecodeDeltaFrame already verified the embedded snapshot's own
			// CRC and cross-checked it against the header's state CRC.
			if frame.Snap.StateCRC() != frame.StateCRC {
				t.Fatal("full frame state CRC inconsistent after decode")
			}
			return
		}
		// The client's apply gate: apply to the fixed baseline, accept only
		// if the post-state CRC matches the frame's pin.
		next, err := ApplyDelta(base, frame.Blocks)
		if err != nil {
			return // out-of-range block: fallback, never a wrong merge
		}
		if base.StateCRC() != baseCRC {
			t.Fatal("ApplyDelta mutated the baseline")
		}
		if next.StateCRC() != frame.StateCRC {
			return // state mismatch: fallback, never a wrong merge
		}
		// Accepted. The only remaining obligation is determinism: the same
		// frame against the same baseline reconstructs the same registers.
		next2, err := ApplyDelta(base, frame.Blocks)
		if err != nil || next2.StateCRC() != next.StateCRC() {
			t.Fatal("delta application is not deterministic")
		}
	})
}

// baselineForFuzz is the fixed apply baseline: the pre-update golden
// sketch (small enough to diff exhaustively, saturated enough to carry
// marker values).
func baselineForFuzz() *Snapshot {
	s, err := core.New(core.Config{K: 2, Trees: 1, Widths: []int{2, 4}, LeafWidth: 4})
	if err != nil {
		panic(err)
	}
	for f := uint32(0); f < 6; f++ {
		key := []byte{byte(f >> 24), byte(f >> 16), byte(f >> 8), byte(f)}
		s.Update(key, uint64(f)+1)
	}
	return TakeSnapshot(s)
}

// FuzzDecodeSnapshot checks the codec never panics or over-allocates on
// malformed snapshots, and that valid FCMS version-3 snapshots survive
// re-encoding with their state intact. The retired version-2 vector seeds
// an input that must be rejected.
func FuzzDecodeSnapshot(f *testing.F) {
	s, err := core.New(core.Config{K: 2, Trees: 1, LeafWidth: 8, Widths: []int{4, 8}})
	if err != nil {
		f.Fatal(err)
	}
	s.Update([]byte{1, 2, 3, 4}, 77)
	good, err := TakeSnapshot(s).Encode()
	if err != nil {
		f.Fatal(err)
	}
	// A flag-bit sketch whose stages span all three lane widths.
	fb, err := core.New(core.Config{K: 2, Trees: 2, LeafWidth: 4, Widths: []int{7, 12, 20}, FlagBitIndicator: true})
	if err != nil {
		f.Fatal(err)
	}
	fb.Update([]byte{5, 6, 7, 8}, 300)
	wide, err := TakeSnapshot(fb).Encode()
	if err != nil {
		f.Fatal(err)
	}
	v3, _ := hex.DecodeString(goldenSnapshotV3Hex)
	v2, _ := hex.DecodeString(retiredSnapshotV2Hex)
	f.Add(good)
	f.Add(wide)
	f.Add(v3)
	f.Add(v2)
	f.Add([]byte{})
	f.Add(good[:8])

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if data[4] != snapshotVersion {
			t.Fatalf("decode accepted snapshot version %d", data[4])
		}
		re, err := snap.Encode()
		if err != nil {
			// Decoded geometry can be unencodable only if decode let
			// something invalid through.
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		again, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		if !again.SameGeometry(snap) || again.StateCRC() != snap.StateCRC() {
			t.Fatal("snapshot state changed across round trip")
		}
		if _, err := snap.Restore(nil); err != nil {
			t.Fatalf("decoded snapshot does not restore: %v", err)
		}
	})
}

// frame builds one length-prefixed frame around payload.
func frame(payload []byte) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzWireFrame fuzzes the framed wire protocol end-to-end as the client
// consumes it: readFrame over a raw byte stream, status parsing, then
// snapshot decoding. None of the layers may panic, and a lying length
// prefix must not translate into a proportional allocation (readFrame
// grows its buffer chunk-by-chunk as bytes actually arrive).
//
// The seed corpus is the regression set for the fault classes the chaos
// harness injects: truncated frames, oversized length prefixes, length
// prefixes past the stream end, corrupt status bytes, and bit-flipped
// snapshot payloads (which the CRC-32C trailer must reject).
func FuzzWireFrame(f *testing.F) {
	s, err := core.New(core.Config{K: 2, Trees: 1, LeafWidth: 8, Widths: []int{4, 8}})
	if err != nil {
		f.Fatal(err)
	}
	s.Update([]byte{9, 9, 9, 9}, 123)
	encoded, err := TakeSnapshot(s).Encode()
	if err != nil {
		f.Fatal(err)
	}
	good := frame(append([]byte{statusOK}, encoded...))

	f.Add(good)                                        // well-formed response
	f.Add(good[:6])                                    // truncated mid-frame
	f.Add(good[:4])                                    // header only
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})     // length prefix over maxFrame
	f.Add([]byte{0x0f, 0xff, 0xff, 0xff, 0, 0})        // huge-but-legal prefix, no body
	f.Add(frame(nil))                                  // empty response payload
	f.Add(frame([]byte{0x07, 1, 2, 3}))                // corrupt status byte
	f.Add(frame(append([]byte{statusErr}, "boom"...))) // server error
	corrupt := append([]byte{}, good...)
	corrupt[len(corrupt)/2] ^= 0x10 // bit flip mid-snapshot: CRC must catch
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, stream []byte) {
		fr, err := readFrame(bytes.NewReader(stream))
		if err != nil {
			return
		}
		payload, err := parseResponse(fr)
		if err != nil {
			return
		}
		snap, err := DecodeSnapshot(payload)
		if err != nil {
			return
		}
		// Anything that survived all three layers must round-trip.
		re, err := snap.Encode()
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		if _, err := DecodeSnapshot(re); err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
	})
}

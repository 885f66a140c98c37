package collect

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
)

// Window frame codec: a closed measurement window's snapshot plus the
// temporal metadata the over-time ring keeps per bucket (coarsening
// level, window span, generation range, wall-clock bounds, packet count).
// The sketch body is the plain FCMS version-3 snapshot encoding,
// byte-identical to Snapshot.Encode — the windowed layer rides along
// without forking the register wire format — and the whole frame carries
// its own CRC-32C trailer, so metadata corruption is caught even though
// the embedded body has a valid inner checksum.
const (
	windowMagic = 0x46434d57 // "FCMW"
	// Version 2: fixed 56-byte header, embedded FCMS version-3 body,
	// CRC-32C trailer over header+body. (Version 1 embedded FCMS version
	// 2.)
	windowVersion = 2
	// windowHeaderLen is the encoded header size:
	// magic u32, version u8, level u8, reserved u16, span u32,
	// firstGen u64, gen u64, minTime i64, maxTime i64, packets u64,
	// bodyLen u32.
	windowHeaderLen = 4 + 1 + 1 + 2 + 4 + 8 + 8 + 8 + 8 + 8 + 4
)

// WindowMeta is the temporal metadata of one closed-window bucket.
type WindowMeta struct {
	// Level is the exponential-histogram coarsening level (0 = a fresh,
	// uncoarsened window).
	Level uint8
	// Span is how many original windows were folded into this bucket.
	Span uint32
	// FirstGeneration..Generation is the covered range of window
	// ordinals.
	FirstGeneration uint64
	Generation      uint64
	// MinTimeUnixNano/MaxTimeUnixNano bound the bucket's wall-clock span.
	MinTimeUnixNano int64
	MaxTimeUnixNano int64
	// Packets is the total increments the covered windows recorded.
	Packets uint64
}

// EncodeWindow serializes one window frame.
//
// Layout (all big-endian):
//
//	u32 magic "FCMW", u8 version(2), u8 level, u16 reserved,
//	u32 span, u64 firstGeneration, u64 generation,
//	i64 minTimeUnixNano, i64 maxTimeUnixNano, u64 packets,
//	u32 bodyLen, bodyLen × body (an FCMS version-3 snapshot,
//	Snapshot.Encode verbatim),
//	u32 crc32c over everything above
func EncodeWindow(meta WindowMeta, snap *Snapshot) ([]byte, error) {
	return AppendEncodeWindow(nil, meta, snap)
}

// AppendEncodeWindow serializes a window frame (see EncodeWindow for the
// layout), appending to dst and returning the extended slice.
func AppendEncodeWindow(dst []byte, meta WindowMeta, snap *Snapshot) ([]byte, error) {
	if meta.Span == 0 {
		return nil, fmt.Errorf("collect: window frame span must be positive")
	}
	if meta.FirstGeneration > meta.Generation {
		return nil, fmt.Errorf("collect: window frame generations inverted: [%d,%d]",
			meta.FirstGeneration, meta.Generation)
	}
	start := len(dst)
	dst = slices.Grow(dst, windowHeaderLen+snap.encodedSize()+4)
	dst = binary.BigEndian.AppendUint32(dst, windowMagic)
	dst = append(dst, windowVersion, meta.Level, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, meta.Span)
	dst = binary.BigEndian.AppendUint64(dst, meta.FirstGeneration)
	dst = binary.BigEndian.AppendUint64(dst, meta.Generation)
	dst = binary.BigEndian.AppendUint64(dst, uint64(meta.MinTimeUnixNano))
	dst = binary.BigEndian.AppendUint64(dst, uint64(meta.MaxTimeUnixNano))
	dst = binary.BigEndian.AppendUint64(dst, meta.Packets)
	dst = binary.BigEndian.AppendUint32(dst, 0) // bodyLen, patched below
	bodyStart := len(dst)
	dst, err := snap.AppendEncode(dst)
	if err != nil {
		return nil, fmt.Errorf("collect: window frame body: %w", err)
	}
	binary.BigEndian.PutUint32(dst[bodyStart-4:], uint32(len(dst)-bodyStart))
	return binary.BigEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// DecodeWindow parses a window frame, verifying the outer CRC-32C trailer
// before any field is trusted; the embedded snapshot body is then decoded
// as FCMS version 3 (which re-verifies its inner checksum).
func DecodeWindow(data []byte) (WindowMeta, *Snapshot, error) {
	var meta WindowMeta
	if len(data) < windowHeaderLen+4 {
		return meta, nil, fmt.Errorf("collect: window frame of %dB too short", len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if want, got := binary.BigEndian.Uint32(trailer), crc32.Checksum(payload, castagnoli); want != got {
		return meta, nil, fmt.Errorf("collect: window frame checksum mismatch (corrupt payload): got 0x%08x want 0x%08x", got, want)
	}
	if magic := binary.BigEndian.Uint32(payload[0:4]); magic != windowMagic {
		return meta, nil, fmt.Errorf("collect: bad window frame magic 0x%08x", magic)
	}
	if v := payload[4]; v != windowVersion {
		return meta, nil, fmt.Errorf("collect: unsupported window frame version %d", v)
	}
	meta.Level = payload[5]
	if reserved := binary.BigEndian.Uint16(payload[6:8]); reserved != 0 {
		return meta, nil, fmt.Errorf("collect: window frame reserved field 0x%04x must be zero", reserved)
	}
	meta.Span = binary.BigEndian.Uint32(payload[8:12])
	meta.FirstGeneration = binary.BigEndian.Uint64(payload[12:20])
	meta.Generation = binary.BigEndian.Uint64(payload[20:28])
	meta.MinTimeUnixNano = int64(binary.BigEndian.Uint64(payload[28:36]))
	meta.MaxTimeUnixNano = int64(binary.BigEndian.Uint64(payload[36:44]))
	meta.Packets = binary.BigEndian.Uint64(payload[44:52])
	bodyLen := binary.BigEndian.Uint32(payload[52:56])
	if meta.Span == 0 {
		return meta, nil, fmt.Errorf("collect: window frame span is zero")
	}
	if meta.FirstGeneration > meta.Generation {
		return meta, nil, fmt.Errorf("collect: window frame generations inverted: [%d,%d]",
			meta.FirstGeneration, meta.Generation)
	}
	if int(bodyLen) > maxSaneBytes {
		return meta, nil, fmt.Errorf("collect: window frame claims %dB body", bodyLen)
	}
	if len(payload) != windowHeaderLen+int(bodyLen) {
		return meta, nil, fmt.Errorf("collect: window frame body length %d does not match payload %d",
			bodyLen, len(payload)-windowHeaderLen)
	}
	snap, err := DecodeSnapshot(payload[windowHeaderLen:])
	if err != nil {
		return meta, nil, err
	}
	return meta, snap, nil
}

package core

import (
	"encoding/binary"
	"testing"
)

// laneConfig is the paper's default geometry pinned small enough for
// exhaustive register comparisons.
func laneConfig() Config {
	return Config{K: 8, Trees: 2, Widths: []int{8, 16, 32}, LeafWidth: 512}
}

// setStage overwrites stage l of tree tr of s with vals, laid out at the
// stage's lane width and written through SetStageBytes. A value that does
// not fit the lane fails the test rather than being truncated.
func setStage(t testing.TB, s *Sketch, tr, l int, vals ...uint32) {
	t.Helper()
	size := LaneBytes(s.StageWidth(l))
	raw := make([]byte, 0, len(vals)*size)
	for i, v := range vals {
		if size < 4 && v>>(8*size) != 0 {
			t.Fatalf("setStage: stage %d value %d at index %d exceeds its %d-byte lane", l, v, i, size)
		}
		switch size {
		case 1:
			raw = append(raw, uint8(v))
		case 2:
			raw = binary.LittleEndian.AppendUint16(raw, uint16(v))
		default:
			raw = binary.LittleEndian.AppendUint32(raw, v)
		}
	}
	if err := s.SetStageBytes(tr, l, raw); err != nil {
		t.Fatal(err)
	}
}

// TestResidentBytesTypedLanes pins the compaction arithmetic: with the
// paper's {8,16,32} widths every leaf costs 1 byte, every level-2 node 2
// and every root 4, so a tree holds w1·(1 + 2/k + 4/k²) resident bytes —
// 1.3125·w1 at k=8 — the per-stage width the hardware charges.
func TestResidentBytesTypedLanes(t *testing.T) {
	s, err := New(laneConfig())
	if err != nil {
		t.Fatal(err)
	}
	w1, trees := 512, 2
	want := trees * (w1 + 2*w1/8 + 4*w1/64)
	if got := s.ResidentBytes(); got != want {
		t.Errorf("resident bytes %d, want %d", got, want)
	}
	// For byte-aligned widths the bit cost and the resident bytes
	// coincide — the typed lanes waste nothing on the default geometry.
	if m := s.MemoryBytes(); m != want {
		t.Errorf("MemoryBytes %d != resident %d for byte-aligned widths", m, want)
	}
}

// TestSaturationBoundariesNativeWidth exercises the exact 254/65534 lane
// boundaries of the paper's hardware layout: the byte lane counts to 254
// and marks at 255, the uint16 lane counts to 65534 and marks at 65535.
func TestSaturationBoundariesNativeWidth(t *testing.T) {
	s, err := New(laneConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{9, 9, 9, 9}

	s.Update(key, 254)
	if got := s.Estimate(key); got != 254 {
		t.Fatalf("estimate at byte-lane capacity: %d, want 254", got)
	}
	// One more increment crosses the 254 boundary: the leaf marks at 255
	// and the excess promotes into the uint16 lane.
	s.Update(key, 1)
	if got := s.Estimate(key); got != 255 {
		t.Fatalf("estimate across byte-lane boundary: %d, want 255", got)
	}
	// Fill to the uint16 boundary: 254 + 65534 total, then one more.
	s.Update(key, 65534-1)
	if got, want := s.Estimate(key), uint64(254+65534); got != want {
		t.Fatalf("estimate at uint16-lane capacity: %d, want %d", got, want)
	}
	s.Update(key, 1)
	if got, want := s.Estimate(key), uint64(254+65534+1); got != want {
		t.Fatalf("estimate across uint16-lane boundary: %d, want %d", got, want)
	}
}

// TestCloneSharesLayout: a clone keeps its source's lane layout and stays
// independent after cloning.
func TestCloneSharesLayout(t *testing.T) {
	s, err := New(laneConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{1, 2, 3, 4}
	s.Update(key, 300) // crosses the byte lane into the uint16 lane
	c := s.Clone()
	if got := c.ResidentBytes(); got != s.ResidentBytes() {
		t.Fatalf("clone resident bytes %d, want %d", got, s.ResidentBytes())
	}
	if d := s.FirstRegisterDiff(c); d != "" {
		t.Fatalf("clone differs from source: %s", d)
	}
	c.Update(key, 1)
	if s.Estimate(key) == c.Estimate(key) {
		t.Fatal("clone shares counter storage with its source")
	}
}

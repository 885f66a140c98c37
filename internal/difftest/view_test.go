package difftest

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
)

// TestStageViewRoundTrip pins the oracles' register view against core's
// own register access: on every lane-diff geometry — 1-, 2- and 4-byte
// lanes, marker and flag-bit encodings — copying a loaded sketch stage by
// stage through StageValues and SetStageValues into an empty sketch must
// reproduce it register for register (EqualRegisters reads both sides
// through core's load), each stage must widen to W1/K^l values, and the
// widened values must add up to core's TotalCount per tree (a marked
// node counts its stage capacity), so a misread that the round trip
// would undo still shows.
func TestStageViewRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5ca1e))
	for gi, cfg := range laneDiffGeometries() {
		x, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loadRandom(x, rng, 4*cfg.LeafWidth)
		y, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		last := x.Depth() - 1
		for tr := 0; tr < x.NumTrees(); tr++ {
			n, total := cfg.LeafWidth, uint64(0)
			for l := 0; l <= last; l, n = l+1, n/cfg.K {
				vals := StageValues(x, tr, l)
				if len(vals) != n {
					t.Fatalf("geometry %d tree %d stage %d: view holds %d values, want %d", gi, tr, l, len(vals), n)
				}
				for _, v := range vals {
					if l < last && uint64(v) == x.StageMax(l)+1 {
						total += x.StageMax(l)
					} else {
						total += uint64(v)
					}
				}
				if err := SetStageValues(y, tr, l, vals); err != nil {
					t.Fatalf("geometry %d tree %d stage %d: %v", gi, tr, l, err)
				}
			}
			if want := x.TotalCount(tr); total != want {
				t.Fatalf("geometry %d tree %d: view sums to %d, core's TotalCount is %d", gi, tr, total, want)
			}
		}
		if !x.EqualRegisters(y) {
			t.Fatalf("geometry %d (%+v): view round trip differs: %s", gi, cfg, x.FirstRegisterDiff(y))
		}
	}
}

// TestSetStageValuesLaneRange: values that cannot be represented at a
// stage's native lane width must be rejected with the offending index, not
// silently truncated.
func TestSetStageValuesLaneRange(t *testing.T) {
	s, err := core.New(core.Config{K: 2, Trees: 1, Widths: []int{8, 16, 32}, LeafWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := SetStageValues(s, 0, 0, []uint32{0, 255, 0, 0}); err != nil {
		t.Fatalf("in-range byte-lane values rejected: %v", err)
	}
	err = SetStageValues(s, 0, 0, []uint32{0, 256, 0, 0})
	if err == nil || !strings.Contains(err.Error(), "index 1") {
		t.Fatalf("over-wide byte-lane value not rejected with its index: %v", err)
	}
	err = SetStageValues(s, 0, 1, []uint32{70000, 0})
	if err == nil || !strings.Contains(err.Error(), "index 0") {
		t.Fatalf("over-wide uint16-lane value not rejected with its index: %v", err)
	}
	// The root lane is full-width: any uint32 value is representable.
	if err := SetStageValues(s, 0, 2, []uint32{1 << 31}); err != nil {
		t.Fatalf("root-lane value rejected: %v", err)
	}
}

func TestSetStageValuesErrors(t *testing.T) {
	s, err := core.New(core.Config{K: 8, Trees: 2, MemoryBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := SetStageValues(s, 0, 0, []uint32{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

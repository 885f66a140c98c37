package core_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/difftest"
)

// splitGeometries is the merge sweep at sizes where range cuts land
// inside every stage: at least seven 64-root units per tree, so seven
// parts really cut seven ways. It covers the paper's byte-aligned layout,
// sub-byte widths under both counter encodings, K not a power of two on a
// four-stage tree whose last unit is partial (deeper than three stages,
// so it must merge whole at any part count), a two-stage tree, a 9-bit
// stage in the uint16 lane, and a tree of one 64-root unit, which no part
// count can cut.
func splitGeometries() []core.Config {
	return []core.Config{
		{K: 8, Trees: 2, LeafWidth: 512 * 64, Widths: []int{8, 16, 32}},
		{K: 2, Trees: 2, LeafWidth: 640 * 4, Widths: []int{3, 5, 8}},
		{K: 2, Trees: 2, LeafWidth: 640 * 4, Widths: []int{3, 5, 8}, FlagBitIndicator: true},
		{K: 3, Trees: 2, LeafWidth: 500 * 27, Widths: []int{4, 9, 16, 24}},
		{K: 4, Trees: 1, LeafWidth: 700 * 4, Widths: []int{8, 16}},
		{K: 2, Trees: 3, LeafWidth: 480 * 4, Widths: []int{4, 9, 20}},
		{K: 2, Trees: 2, LeafWidth: 64 * 4, Widths: []int{3, 5, 8}},
	}
}

// spread builds a sketch of cfg loaded across its whole leaf stage: keys
// from a space of four per leaf, a few of them hot by up to hot extra
// packets, and one in 512 sent with enough packets to saturate its root.
func spread(t *testing.T, cfg core.Config, rng *rand.Rand, hot int) *core.Sketch {
	t.Helper()
	s := mustNew(t, cfg)
	var key [4]byte
	for i := 0; i < 2*cfg.LeafWidth; i++ {
		binary.LittleEndian.PutUint32(key[:], uint32(rng.Intn(4*cfg.LeafWidth)))
		inc := uint64(1 + rng.Intn(3))
		switch {
		case rng.Intn(512) == 0:
			inc = 1 << 34
		case hot > 0 && rng.Intn(16) == 0:
			inc += uint64(rng.Intn(hot))
		}
		s.Update(key[:], inc)
	}
	return s
}

// TestSplitMergeMatchesScalar holds MergeSplit, with every sketch cut
// into 1, 2, 3 and 7 root ranges, to the scalar oracle
// difftest.MergeScalar on the split sweep, at loads from no overflow to
// saturated roots. A second fold into the same target checks that no
// range leaves carry scratch behind for the next merge, and the derived
// cut (no forced part count) must agree too.
func TestSplitMergeMatchesScalar(t *testing.T) {
	for gi, cfg := range splitGeometries() {
		for _, hot := range []int{0, 300, 70000} {
			for _, parts := range []int{1, 2, 3, 7, 0} {
				name := fmt.Sprintf("k%d_d%d_w%v_leaf%d_flag%v/hot%d/parts%d",
					cfg.K, cfg.Trees, cfg.Widths, cfg.LeafWidth, cfg.FlagBitIndicator, hot, parts)
				t.Run(name, func(t *testing.T) {
					if parts > 0 {
						defer core.SetSplitParts(parts)()
					}
					seed := difftest.DeriveSeed(0x5b117e46, 16*gi+hot%13+parts)
					rng := rand.New(rand.NewSource(seed))
					a, b := spread(t, cfg, rng, hot), spread(t, cfg, rng, hot)
					sa, sb := a.Clone(), b.Clone()
					for round := 0; round < 2; round++ {
						if err := a.MergeSplit(b); err != nil {
							t.Fatalf("MergeSplit: %v", err)
						}
						if err := difftest.MergeScalar(sa, sb); err != nil {
							t.Fatalf("scalar merge: %v", err)
						}
						if d := a.FirstRegisterDiff(sa); d != "" {
							t.Fatalf("seed %d round %d: split merge diverged from scalar: %s", seed, round, d)
						}
					}
				})
			}
		}
	}
}

// TestResetSplitClears: ResetSplit leaves every register of every stage
// zero at every cut, like Reset — for one sketch at a time, and for the
// whole sweep, geometries mixed, in one pass.
func TestResetSplitClears(t *testing.T) {
	geos := splitGeometries()
	load := func() []*core.Sketch {
		var sks []*core.Sketch
		for gi, cfg := range geos {
			sks = append(sks, spread(t, cfg, rand.New(rand.NewSource(int64(gi))), 70000))
		}
		return sks
	}
	for _, parts := range []int{1, 2, 3, 7, 0} {
		t.Run(fmt.Sprintf("parts%d", parts), func(t *testing.T) {
			if parts > 0 {
				defer core.SetSplitParts(parts)()
			}
			all := load()
			for _, s := range load() {
				core.ResetSplit(s)
				all = append(all, s)
			}
			core.ResetSplit(all[:len(geos)]...)
			for i, s := range all {
				if d := s.FirstRegisterDiff(mustNew(t, geos[i%len(geos)])); d != "" {
					t.Fatalf("sketch %d: ResetSplit left a register set: %s", i, d)
				}
			}
		})
	}
}

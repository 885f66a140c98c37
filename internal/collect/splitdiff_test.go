package collect_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/difftest"
)

// TestSplitDiffMatchesScalar holds DiffSnapshots, with every stage cut
// into 1, 2, 3 and 7 ranges, to the scalar oracle difftest.DiffScalar. The
// geometries put range cuts inside stages of a few words, include stages
// shorter than one word and stages whose byte length is not a multiple
// of 8, and two one-tree layouts; at every cut the blocks must also equal
// the uncut diff's, buffers exactly sized, and apply back to cur.
func TestSplitDiffMatchesScalar(t *testing.T) {
	geometries := []core.Config{
		{K: 8, Trees: 2, LeafWidth: 4096, Widths: []int{8, 16, 32}},
		{K: 4, Trees: 1, LeafWidth: 1024, Widths: []int{8, 16, 32}},
		{K: 2, Trees: 1, LeafWidth: 4, Widths: []int{2, 4}},
		{K: 2, Trees: 3, LeafWidth: 44, Widths: []int{4, 9, 20}},
		{K: 2, Trees: 1, LeafWidth: 12, Widths: []int{7, 12, 20}, FlagBitIndicator: true},
		{K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 8}},
	}
	densities := []struct {
		name string
		next func(base *core.Sketch, rng *rand.Rand) *core.Sketch
	}{
		{"none", func(base *core.Sketch, _ *rand.Rand) *core.Sketch { return base.Clone() }},
		{"sparse", func(base *core.Sketch, rng *rand.Rand) *core.Sketch {
			cur := base.Clone()
			feed(cur, rng, 3)
			return cur
		}},
		{"reset-dense", func(base *core.Sketch, rng *rand.Rand) *core.Sketch {
			cur := base.Clone()
			cur.Reset()
			feed(cur, rng, cur.LeafWidth())
			return cur
		}},
		{"all", func(base *core.Sketch, _ *rand.Rand) *core.Sketch {
			cur := base.Clone()
			for tr := 0; tr < cur.NumTrees(); tr++ {
				for l := 0; l < cur.Depth(); l++ {
					span := cur.StageMax(l) + 2 // values 0..mark
					vals := difftest.StageValues(cur, tr, l)
					for i, v := range vals {
						vals[i] = uint32((uint64(v) + 1) % span)
					}
					if err := difftest.SetStageValues(cur, tr, l, vals); err != nil {
						panic(err)
					}
				}
			}
			return cur
		}},
	}
	for gi, cfg := range geometries {
		for di, d := range densities {
			name := fmt.Sprintf("k%d_d%d_w%v_leaf%d/%s", cfg.K, cfg.Trees, cfg.Widths, cfg.LeafWidth, d.name)
			t.Run(name, func(t *testing.T) {
				seed := difftest.DeriveSeed(0x5b11d1ff, 4*gi+di)
				t.Logf("seed %d", seed)
				rng := rand.New(rand.NewSource(seed))
				base, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				feed(base, rng, cfg.LeafWidth)
				cur := d.next(base, rng)
				checkSplitDiff(t, base, cur)
			})
		}
	}
}

// checkSplitDiff diffs base → cur at every part count against the oracle
// and the uncut diff.
func checkSplitDiff(t *testing.T, base, cur *core.Sketch) {
	t.Helper()
	bs, cs := collect.TakeSnapshot(base), collect.TakeSnapshot(cur)
	want := difftest.DiffScalar(base, cur)
	var uncut []collect.DeltaBlock
	for _, parts := range []int{1, 2, 3, 7} {
		restore := collect.SetDiffParts(parts)
		blocks, ok := collect.DiffSnapshots(bs, cs)
		restore()
		if !ok {
			t.Fatalf("%d parts: snapshots of one geometry refused to diff", parts)
		}
		var got []difftest.RegisterChange
		for _, b := range blocks {
			if len(b.Indexes) == 0 || cap(b.Indexes) != len(b.Indexes) || cap(b.Values) != len(b.Values) ||
				len(b.Values)%len(b.Indexes) != 0 {
				t.Fatalf("%d parts: tree %d stage %d block: %d/%d indexes, %d/%d value bytes",
					parts, b.Tree, b.Stage, len(b.Indexes), cap(b.Indexes), len(b.Values), cap(b.Values))
			}
			w := len(b.Values) / len(b.Indexes)
			for i, idx := range b.Indexes {
				var v [4]byte
				copy(v[:], b.Values[w*i:w*(i+1)])
				got = append(got, difftest.RegisterChange{Tree: b.Tree, Stage: b.Stage, Index: int(idx),
					Value: binary.LittleEndian.Uint32(v[:])})
			}
		}
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("%d parts: change %d: split %+v, scalar %+v", parts, i, got[i], want[i])
				}
			}
			t.Fatalf("%d parts: the split diff found %d changes, the scalar oracle %d", parts, len(got), len(want))
		}
		if parts == 1 {
			uncut = blocks
		} else if !slices.EqualFunc(blocks, uncut, func(a, b collect.DeltaBlock) bool {
			return a.Tree == b.Tree && a.Stage == b.Stage && slices.Equal(a.Indexes, b.Indexes) && slices.Equal(a.Values, b.Values)
		}) {
			t.Fatalf("%d parts: blocks differ from the uncut diff's", parts)
		}
		applied, err := collect.ApplyDelta(bs, blocks)
		if err != nil {
			t.Fatalf("%d parts: %v", parts, err)
		}
		if !slices.Equal(applied.Regs, cs.Regs) || applied.StateCRC() != cs.StateCRC() {
			t.Fatalf("%d parts: apply(base, diff(base, cur)) != cur", parts)
		}
	}
}

// feed gives s n random keys, one in eight hot enough to push marks and
// carries up the tree.
func feed(s *core.Sketch, rng *rand.Rand, n int) {
	key := make([]byte, 4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(key, rng.Uint32())
		inc := uint64(1 + rng.Intn(3))
		if rng.Intn(8) == 0 {
			inc += uint64(rng.Intn(300))
		}
		s.Update(key, inc)
	}
}

package difftest

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
)

// laneDiffGeometries covers the register layouts the word-wide diff has to
// get right: the equivalence matrix, the merge kernel's lane-shape sweep
// (byte-aligned 8/16/32-bit stages, sub-byte widths, stages whose byte
// length is not a multiple of 8, the flag-bit encoding, a 4-ary tree) and
// the golden {2,4} geometry, whose two stages share one byte lane and
// together span six bytes.
func laneDiffGeometries() []core.Config {
	cfgs := []core.Config{
		{K: 8, Trees: 2, LeafWidth: 4096, Widths: []int{8, 16, 32}},
		{K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 8}},
		{K: 2, Trees: 3, LeafWidth: 44, Widths: []int{4, 9, 20}},
		{K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 8}, FlagBitIndicator: true},
		{K: 4, Trees: 2, LeafWidth: 64, Widths: []int{8, 16, 32}},
		{K: 2, Trees: 1, LeafWidth: 4, Widths: []int{2, 4}},
		{K: 2, Trees: 2, LeafWidth: 12, Widths: []int{7, 12, 20}, FlagBitIndicator: true},
	}
	for _, g := range Geometries() {
		cfgs = append(cfgs, g.CoreConfig())
	}
	return cfgs
}

// laneBytesOf is the counter width a b-bit stage travels at.
func laneBytesOf(b int) int {
	switch {
	case b <= 8:
		return 1
	case b <= 16:
		return 2
	}
	return 4
}

// loadRandom feeds s n random keys, one in eight of them hot enough to
// push marks and carries up the tree.
func loadRandom(s *core.Sketch, rng *rand.Rand, n int) {
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

// TestDiffMatchesScalar holds collect.DiffSnapshots to DiffScalar on every
// geometry of the sweep at four dirty densities — nothing changed, a few
// registers, a reset window reloaded (dense), and every register — and
// requires ApplyDelta(base, Diff(base, cur)) to reproduce cur's registers
// and its state CRC.
func TestDiffMatchesScalar(t *testing.T) {
	densities := []struct {
		name string
		next func(base *core.Sketch, rng *rand.Rand) *core.Sketch
	}{
		{"none", func(base *core.Sketch, _ *rand.Rand) *core.Sketch { return base.Clone() }},
		{"sparse", func(base *core.Sketch, rng *rand.Rand) *core.Sketch {
			cur := base.Clone()
			loadRandom(cur, rng, 3)
			return cur
		}},
		{"reset-dense", func(base *core.Sketch, rng *rand.Rand) *core.Sketch {
			cur := base.Clone()
			cur.Reset()
			loadRandom(cur, rng, cur.LeafWidth())
			return cur
		}},
		{"all", func(base *core.Sketch, _ *rand.Rand) *core.Sketch {
			cur := base.Clone()
			for tr := 0; tr < cur.NumTrees(); tr++ {
				for l := 0; l < cur.Depth(); l++ {
					span := cur.StageMax(l) + 2 // values 0..mark
					vals := StageValues(cur, tr, l)
					for i, v := range vals {
						vals[i] = uint32((uint64(v) + 1) % span)
					}
					if err := SetStageValues(cur, tr, l, vals); err != nil {
						panic(err)
					}
				}
			}
			return cur
		}},
	}
	for gi, cfg := range laneDiffGeometries() {
		for di, d := range densities {
			name := fmt.Sprintf("k%d_d%d_w%v_leaf%d_flag%v/%s", cfg.K, cfg.Trees, cfg.Widths, cfg.LeafWidth, cfg.FlagBitIndicator, d.name)
			t.Run(name, func(t *testing.T) {
				seed := DeriveSeed(0x1a9ed1ff, 4*gi+di)
				t.Logf("seed %d", seed)
				rng := newRng(seed)
				base, err := core.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				loadRandom(base, rng, cfg.LeafWidth)
				cur := d.next(base, rng)
				checkLaneDiff(t, cfg, d.name, base, cur)
			})
		}
	}
}

// checkLaneDiff runs the word-wide diff of base → cur against the scalar
// oracle and the apply round trip.
func checkLaneDiff(t *testing.T, cfg core.Config, density string, base, cur *core.Sketch) {
	t.Helper()
	bs, cs := collect.TakeSnapshot(base), collect.TakeSnapshot(cur)
	blocks, ok := collect.DiffSnapshots(bs, cs)
	if !ok {
		t.Fatal("snapshots of one geometry refused to diff")
	}
	var got []RegisterChange
	for _, b := range blocks {
		w := laneBytesOf(cfg.Widths[b.Stage])
		if len(b.Indexes) == 0 || len(b.Values) != w*len(b.Indexes) {
			t.Fatalf("tree %d stage %d block: %d indexes, %dB of values, want %dB each",
				b.Tree, b.Stage, len(b.Indexes), len(b.Values), w)
		}
		for i, idx := range b.Indexes {
			var v uint32
			for j := w - 1; j >= 0; j-- {
				v = v<<8 | uint32(b.Values[w*i+j])
			}
			got = append(got, RegisterChange{Tree: b.Tree, Stage: b.Stage, Index: int(idx), Value: v})
		}
	}
	want := DiffScalar(base, cur)
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("change %d: word-wide %+v, scalar %+v (%d vs %d changes)", i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("word-wide diff found %d changes, scalar %d", len(got), len(want))
	}
	total := 0
	for l := 0; l < cur.Depth(); l++ {
		total += cur.NumTrees() * (cfg.LeafWidth / pow(cfg.K, l))
	}
	switch {
	case density == "none" && len(want) != 0:
		t.Fatalf("identical sketches differ in %d registers", len(want))
	case density != "none" && len(want) == 0:
		t.Fatal("the dirty sketch changed no register")
	case density == "all" && len(want) != total:
		t.Fatalf("%d of %d registers changed, want all", len(want), total)
	}

	applied, err := collect.ApplyDelta(bs, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if applied.StateCRC() != cs.StateCRC() {
		t.Fatal("applied delta does not reproduce the state CRC")
	}
	sk, err := applied.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := cur.FirstRegisterDiff(sk); d != "" {
		t.Fatalf("apply(base, diff(base, cur)) != cur: %s", d)
	}
}

// pow returns k^e.
func pow(k, e int) int {
	n := 1
	for ; e > 0; e-- {
		n *= k
	}
	return n
}

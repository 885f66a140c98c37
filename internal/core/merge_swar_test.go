package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/difftest"
)

// swarGeometries covers the lane shapes the word kernel has to get right:
// the paper's byte-aligned default (8×u8 / 4×u16 / 2×u32 counters per
// word), tiny widths that saturate constantly, a leaf width that is not a
// multiple of 8 (sub-word tails), the flag-bit encoding (different mark)
// and a 4-ary byte-aligned tree (a parent's children fill half a word, so
// carries gather from a different lane grouping than at k=8).
func swarGeometries() []core.Config {
	return []core.Config{
		{K: 8, Trees: 2, LeafWidth: 4096, Widths: []int{8, 16, 32}},
		{K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 8}},
		{K: 2, Trees: 3, LeafWidth: 44, Widths: []int{4, 9, 20}},
		{K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 8}, FlagBitIndicator: true},
		{K: 4, Trees: 2, LeafWidth: 64, Widths: []int{8, 16, 32}},
	}
}

// fillPair builds two independently loaded sketches of cfg plus identical
// copies for the scalar reference, loading burst keys hot enough to drive
// marks and carries through every stage when hot is large.
func fillPair(t *testing.T, cfg core.Config, seed int64, hot int) (a, b, sa, sb *core.Sketch) {
	t.Helper()
	mk := func() *core.Sketch {
		s, err := core.New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		return s
	}
	a, b, sa, sb = mk(), mk(), mk(), mk()
	rng := rand.New(rand.NewSource(seed))
	key := make([]byte, 4)
	load := func(dst, ref *core.Sketch, n int) {
		for i := 0; i < n; i++ {
			k := rng.Uint32() % 64
			reps := 1 + rng.Intn(3)
			if rng.Intn(8) == 0 {
				reps += hot
			}
			for r := 0; r < reps; r++ {
				key[0], key[1], key[2], key[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
				dst.Update(key, 1)
				ref.Update(key, 1)
			}
		}
	}
	load(a, sa, 400)
	load(b, sb, 400)
	return a, b, sa, sb
}

func TestMergeMatchesScalar(t *testing.T) {
	for gi, cfg := range swarGeometries() {
		for _, hot := range []int{0, 500, 50000} {
			t.Run(fmt.Sprintf("g%d/hot%d", gi, hot), func(t *testing.T) {
				a, b, sa, sb := fillPair(t, cfg, int64(gi*31+hot), hot)
				if err := a.Merge(b); err != nil {
					t.Fatalf("Merge: %v", err)
				}
				if err := difftest.MergeScalar(sa, sb); err != nil {
					t.Fatalf("scalar merge: %v", err)
				}
				if d := a.FirstRegisterDiff(sa); d != "" {
					t.Fatalf("word merge diverged from scalar: %s", d)
				}
				// Repeated folds keep the two paths in lockstep (carry
				// scratch from the first merge must not leak into the next).
				if err := a.Merge(sb); err != nil {
					t.Fatalf("second Merge: %v", err)
				}
				if err := difftest.MergeScalar(sa, b); err != nil {
					t.Fatalf("second scalar merge: %v", err)
				}
				if d := a.FirstRegisterDiff(sa); d != "" {
					t.Fatalf("second fold diverged: %s", d)
				}
			})
		}
	}
}

// TestMergeAllocs pins the zero-alloc contract: after the first call has
// sized the carry scratch, Merge allocates nothing.
func TestMergeAllocs(t *testing.T) {
	cfg := core.Config{K: 8, Trees: 2, LeafWidth: 4096, Widths: []int{8, 16, 32}}
	a, b, _, _ := fillPair(t, cfg, 1, 500)
	if err := a.Merge(b); err != nil { // warm-up sizes the scratch
		t.Fatalf("Merge: %v", err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := a.Merge(b); err != nil {
			t.Fatalf("Merge: %v", err)
		}
	}); n != 0 {
		t.Fatalf("Merge allocates %.1f objects/op after warm-up, want 0", n)
	}
}

// TestFirstRegisterDiffPrescreen exercises the lane-bytes equality fast
// path: identical state short-circuits, and any single-register
// perturbation in any lane is still found.
func TestFirstRegisterDiffPrescreen(t *testing.T) {
	cfg := core.Config{K: 2, Trees: 2, LeafWidth: 32, Widths: []int{4, 12, 24}}
	a, _, b, _ := fillPair(t, cfg, 3, 200)
	if d := a.FirstRegisterDiff(b); d != "" {
		t.Fatalf("identically loaded sketches differ: %s", d)
	}
	for l := 0; l < a.Depth(); l++ {
		vals := a.StageValues(1, l)
		saved := vals[3]
		bumped := append([]uint32(nil), vals...)
		bumped[3] = saved + 1
		if err := a.SetStageValues(1, l, bumped); err != nil {
			t.Fatalf("SetStageValues: %v", err)
		}
		if d := a.FirstRegisterDiff(b); d == "" {
			t.Fatalf("stage %d perturbation not detected", l)
		}
		bumped[3] = saved
		if err := a.SetStageValues(1, l, bumped); err != nil {
			t.Fatalf("SetStageValues restore: %v", err)
		}
	}
	if d := a.FirstRegisterDiff(b); d != "" {
		t.Fatalf("restore left a diff: %s", d)
	}
}

// benchPair builds the paper's default geometry (K=8, {8,16,32}, 4096
// leaves × 2 trees ≈ 36 KB of counters) loaded with a realistic skewed
// mix, plus an accumulator of the same shape.
func benchPair(b *testing.B) (acc, x, y *core.Sketch) {
	b.Helper()
	cfg := core.Config{K: 8, Trees: 2, LeafWidth: 4096, Widths: []int{8, 16, 32}}
	mk := func() *core.Sketch {
		s, err := core.New(cfg)
		if err != nil {
			b.Fatalf("New: %v", err)
		}
		return s
	}
	acc, x, y = mk(), mk(), mk()
	rng := rand.New(rand.NewSource(42))
	key := make([]byte, 4)
	for i := 0; i < 60000; i++ {
		k := uint32(rng.ExpFloat64() * 700)
		key[0], key[1], key[2], key[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
		if i%2 == 0 {
			x.Update(key, 1)
		} else {
			y.Update(key, 1)
		}
	}
	return acc, x, y
}

func BenchmarkMergePair(b *testing.B) {
	acc, x, y := benchPair(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Reset()
		if err := acc.Merge(x); err != nil {
			b.Fatal(err)
		}
		if err := acc.Merge(y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEqualRegisters(b *testing.B) {
	_, x, _ := benchPair(b)
	y := x.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !x.EqualRegisters(y) {
			b.Fatal("clones differ")
		}
	}
}

package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/difftest"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/trace"
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
	rng := rand.New(rand.NewSource(seed))
	a, b = loaded(t, cfg, rng, hot), loaded(t, cfg, rng, hot)
	return a, b, a.Clone(), b.Clone()
}

// loaded builds a sketch of cfg fed 400 random keys of a 64-key space,
// one in eight of them hot extra times.
func loaded(t *testing.T, cfg core.Config, rng *rand.Rand, hot int) *core.Sketch {
	t.Helper()
	s := mustNew(t, cfg)
	key := make([]byte, 4)
	for i := 0; i < 400; i++ {
		k := rng.Uint32() % 64
		reps := 1 + rng.Intn(3)
		if rng.Intn(8) == 0 {
			reps += hot
		}
		key[0], key[1], key[2], key[3] = byte(k), byte(k>>8), byte(k>>16), byte(k>>24)
		s.Update(key, uint64(reps))
	}
	return s
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
		vals := difftest.StageValues(a, 1, l)
		saved := vals[3]
		bumped := append([]uint32(nil), vals...)
		bumped[3] = saved + 1
		if err := difftest.SetStageValues(a, 1, l, bumped); err != nil {
			t.Fatalf("SetStageValues: %v", err)
		}
		if d := a.FirstRegisterDiff(b); d == "" {
			t.Fatalf("stage %d perturbation not detected", l)
		}
		bumped[3] = saved
		if err := difftest.SetStageValues(a, 1, l, bumped); err != nil {
			t.Fatalf("SetStageValues restore: %v", err)
		}
	}
	if d := a.FirstRegisterDiff(b); d != "" {
		t.Fatalf("restore left a diff: %s", d)
	}
}

// benchPair builds the paper's stage layout (K=8, {8,16,32}) at 4096
// leaves × 2 trees — 10,752 bytes of counters, which stay in L1/L2, not
// the 1 MiB default geometry (see BenchmarkMergePaper) — loaded with a
// realistic skewed mix, plus an accumulator of the same shape.
func benchPair(b *testing.B) (acc, x, y *core.Sketch) {
	b.Helper()
	cfg := core.Config{K: 8, Trees: 2, LeafWidth: 4096, Widths: []int{8, 16, 32}}
	acc, x, y = mustNew(b, cfg), mustNew(b, cfg), mustNew(b, cfg)
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

// paperPair loads two 256 Ki-packet windows of one CAIDA-like trace into
// sketches of the paper geometry (K=8, {8,16,32}, 1 MiB per sketch:
// 1,048,488 bytes of counters) — the shape every Rotate, coarsening step
// and over-time fold merges. The windows share their heavy flows, so the
// pair carries overflow marks at the same leaves and the merge promotes.
func paperPair(b *testing.B) (x, y *core.Sketch) {
	b.Helper()
	tr, err := trace.CAIDALike(1<<19, 11)
	if err != nil {
		b.Fatal(err)
	}
	var out [2]*core.Sketch
	for i, w := range tr.Windows(2) {
		out[i] = mustNew(b, core.Config{K: 8, Trees: 2, MemoryBytes: 1 << 20})
		w.Replay(out[i])
	}
	return out[0], out[1]
}

// BenchmarkMergePaper times Merge at the paper geometry: "loaded" folds one
// window into a copy of the other; "into-empty" folds a window into a
// cleared sketch. The destination is rebuilt outside the timer. Bytes/op
// is the resident counter bytes of one sketch, so MB/s compares directly
// with BenchmarkWordAddCeiling.
func BenchmarkMergePaper(b *testing.B) {
	x, y := paperPair(b)
	dst := x.Clone()
	for _, bc := range []struct {
		name  string
		setup func() error
		src   *core.Sketch
	}{
		{"loaded", func() error { return dst.CopyFrom(x) }, y},
		{"into-empty", func() error { dst.Reset(); return nil }, x},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(x.ResidentBytes()))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := bc.setup(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := dst.Merge(bc.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var cardinalitySink float64

// BenchmarkCardinalityPaper times the Linear-Counting query on one loaded
// paper-geometry window: a scan for empty leaves over both trees.
func BenchmarkCardinalityPaper(b *testing.B) {
	x, _ := paperPair(b)
	b.SetBytes(int64(x.ResidentBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cardinalitySink = x.Cardinality()
	}
}

var censusSink [][]core.StageCensus

// BenchmarkCensusPaper times the register census on one loaded
// paper-geometry window: one pass over every stage lane of both trees.
func BenchmarkCensusPaper(b *testing.B) {
	x, _ := paperPair(b)
	b.SetBytes(int64(x.ResidentBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		censusSink = x.Census()
	}
}

// BenchmarkWordAddCeiling is the memory-speed reference for the fold
// kernels: a plain 1 MiB []uint64 add, one load of each operand and one
// store per word. Merge at the paper geometry is reported as a multiple of
// this.
func BenchmarkWordAddCeiling(b *testing.B) {
	const words = 1 << 20 / 8
	dst, src := make([]uint64, words), make([]uint64, words)
	for i := range src {
		src[i] = uint64(i)
	}
	b.SetBytes(words * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range src {
			dst[j] += v
		}
	}
}

func mustNew(t testing.TB, cfg core.Config) *core.Sketch {
	t.Helper()
	s, err := core.New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestMergePrescreenBoundaries drives every stage of every sweep geometry,
// under both counter encodings, through the values on either side of the
// word kernel's decisions — p−1 and p around the prescreen bound (p is the
// largest power of two with 2p−2 ≤ max), max−1, max and the mark — merged
// against each other, with and without carry pending from the child stage,
// and holds each merge to difftest.MergeScalar. The pair fills the whole
// stage ("uniform", every block decides alike) or one node in an
// otherwise empty stage, mid-stage or at its last node (sub-word tails).
func TestMergePrescreenBoundaries(t *testing.T) {
	for gi, base := range swarGeometries() {
		for _, flag := range []bool{false, true} {
			cfg := base
			cfg.FlagBitIndicator = flag
			probe := mustNew(t, cfg)
			for l := 0; l < probe.Depth(); l++ {
				t.Run(fmt.Sprintf("g%d/flag=%v/stage%d", gi, flag, l), func(t *testing.T) {
					max := uint32(probe.StageMax(l))
					mark := max + 1 // both encodings: the marker sits one past the capacity
					p := uint32(1)
					for 2*(2*uint64(p))-2 <= uint64(max) {
						p *= 2
					}
					vals := []uint32{0, 1, p - 1, p, max - 1, max}
					if l < probe.Depth()-1 {
						vals = append(vals, mark) // the root saturates at max and never holds the mark
					}
					n := len(difftest.StageValues(probe, 0, l))
					layouts := map[string][]int{"uniform": nil, "mid": {n / 2}, "last": {n - 1}}
					for name, nodes := range layouts {
						for _, x := range vals {
							for _, y := range vals {
								for _, carry := range []bool{false, true} {
									if carry && l == 0 {
										continue
									}
									checkBoundaryMerge(t, cfg, l, nodes, x, y, carry, name)
								}
							}
						}
					}
				})
			}
		}
	}
}

// checkBoundaryMerge sets stage l of two fresh sketches to x and y at
// nodes (every node when nil) — with, when carry is set, every child of
// those nodes at the mark in both, so the child stage promotes into them —
// and compares the word-wide merge with the scalar oracle.
func checkBoundaryMerge(t *testing.T, cfg core.Config, l int, nodes []int, x, y uint32, carry bool, layout string) {
	t.Helper()
	a, b := mustNew(t, cfg), mustNew(t, cfg)
	n, k := len(difftest.StageValues(a, 0, l)), a.K()
	if nodes == nil {
		nodes = make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	for tr := 0; tr < a.NumTrees(); tr++ {
		for _, s := range []struct {
			sk *core.Sketch
			v  uint32
		}{{a, x}, {b, y}} {
			vals := make([]uint32, n)
			for _, i := range nodes {
				vals[i] = s.v
			}
			if err := difftest.SetStageValues(s.sk, tr, l, vals); err != nil {
				t.Fatal(err)
			}
			if carry {
				child := make([]uint32, n*k)
				for _, i := range nodes {
					for c := i * k; c < (i+1)*k; c++ {
						child[c] = uint32(a.StageMax(l-1)) + 1
					}
				}
				if err := difftest.SetStageValues(s.sk, tr, l-1, child); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sa, sb := a.Clone(), b.Clone()
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if err := difftest.MergeScalar(sa, sb); err != nil {
		t.Fatalf("scalar merge: %v", err)
	}
	if d := a.FirstRegisterDiff(sa); d != "" {
		t.Fatalf("%s x=%d y=%d carry=%v: word merge diverged from scalar: %s", layout, x, y, carry, d)
	}
}

// TestMergeIntoEmptyEqualsCopy pins the identity behind copy-first folds:
// merging x into an empty sketch, and CopyFrom(x) into a sketch holding
// other registers, both reproduce x exactly — past root saturation too —
// and CopyFrom allocates nothing. CopyFrom refuses what Merge refuses and
// then leaves its destination untouched.
func TestMergeIntoEmptyEqualsCopy(t *testing.T) {
	saturated := false
	for gi, cfg := range swarGeometries() {
		for _, hot := range []int{0, 500, 50000} {
			t.Run(fmt.Sprintf("g%d/hot%d", gi, hot), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(gi*17 + hot)))
				x, dirty := loaded(t, cfg, rng, hot), loaded(t, cfg, rng, 7)
				for _, stages := range x.Census() {
					if stages[len(stages)-1].Overflowed > 0 {
						saturated = true
					}
				}
				empty := mustNew(t, cfg)
				if err := empty.Merge(x); err != nil {
					t.Fatalf("Merge: %v", err)
				}
				if d := empty.FirstRegisterDiff(x); d != "" {
					t.Fatalf("merge into empty is not the identity: %s", d)
				}
				if err := dirty.CopyFrom(x); err != nil {
					t.Fatalf("CopyFrom: %v", err)
				}
				if d := dirty.FirstRegisterDiff(x); d != "" {
					t.Fatalf("CopyFrom differs from its source: %s", d)
				}
				if n := testing.AllocsPerRun(10, func() {
					if err := dirty.CopyFrom(x); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Fatalf("CopyFrom allocates %.1f objects/op, want 0", n)
				}
			})
		}
	}
	if !saturated {
		t.Fatal("no sweep case saturated a root counter")
	}

	base := core.Config{K: 2, Trees: 2, LeafWidth: 16, Widths: []int{3, 5, 8}}
	for name, mut := range map[string]func(*core.Config){
		"width":    func(c *core.Config) { c.Widths = []int{3, 6, 8} },
		"encoding": func(c *core.Config) { c.FlagBitIndicator = true },
		"seed":     func(c *core.Config) { c.Hash = hashing.NewBobFamily(99) },
	} {
		cfg := base
		mut(&cfg)
		rng := rand.New(rand.NewSource(5))
		dst, src, other := loaded(t, base, rng, 50), loaded(t, base, rng, 50), loaded(t, cfg, rng, 50)
		before := dst.Clone()
		if err := dst.CopyFrom(other); err == nil {
			t.Fatalf("%s: CopyFrom accepted a mismatched sketch", name)
		}
		if d := dst.FirstRegisterDiff(before); d != "" {
			t.Fatalf("%s: refused CopyFrom changed the destination: %s", name, d)
		}
		if err := dst.CopyFrom(src); err != nil {
			t.Fatalf("%s: CopyFrom of a compatible sketch: %v", name, err)
		}
	}
}

// TestMergePlaneEmptyLeaves pins the word-wide empty-leaf count behind
// Cardinality to a per-register count over difftest.StageValues, for leaf stages
// in each lane width — with sub-word tails — and densities from empty to
// full, including values that set only a field's top bit or only its low
// bits.
func TestMergePlaneEmptyLeaves(t *testing.T) {
	cfgs := []core.Config{
		{K: 2, Trees: 3, LeafWidth: 44, Widths: []int{4, 9, 20}}, // u8 leaves, 4-byte tail
		{K: 8, Trees: 2, LeafWidth: 4096},                        // paper layout, many blocks
		{K: 2, Trees: 2, LeafWidth: 42, Widths: []int{12, 20}},   // u16 leaves, 2-counter tail
		{K: 3, Trees: 2, LeafWidth: 45, Widths: []int{20, 32}},   // u32 leaves, 1-counter tail
	}
	rng := rand.New(rand.NewSource(44))
	for ci, cfg := range cfgs {
		for _, density := range []float64{0, 0.02, 0.5, 1} {
			s := mustNew(t, cfg)
			mark := uint32(s.StageMax(0)) + 1
			want := 0
			for tr := 0; tr < s.NumTrees(); tr++ {
				vals := make([]uint32, len(difftest.StageValues(s, tr, 0)))
				for i := range vals {
					if rng.Float64() >= density {
						continue
					}
					switch rng.Intn(4) {
					case 0:
						vals[i] = mark
					case 1:
						vals[i] = 1
					case 2:
						vals[i] = mark / 2 // top counting bit alone (marker encoding)
					default:
						vals[i] = 1 + uint32(rng.Int63n(int64(mark)))
					}
				}
				if err := difftest.SetStageValues(s, tr, 0, vals); err != nil {
					t.Fatal(err)
				}
				for _, v := range difftest.StageValues(s, tr, 0) {
					if v == 0 {
						want++
					}
				}
			}
			if got, w := s.EmptyLeaves(), float64(want)/float64(s.NumTrees()); got != w {
				t.Fatalf("cfg %d density %.2f: EmptyLeaves %v, want %v", ci, density, got, w)
			}
		}
	}
}

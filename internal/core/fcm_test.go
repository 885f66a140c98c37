package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/fcmsketch/fcm/internal/hashing"
)

func k8(i uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return b[:]
}

func newTest(t testing.TB, cfg Config) *Sketch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func defaultSmall(t testing.TB) *Sketch {
	return newTest(t, Config{K: 8, Trees: 2, MemoryBytes: 1 << 16})
}

// fixedFamily returns the same Hasher for every tree index.
type fixedFamily struct{ h hashing.Hasher }

func (f *fixedFamily) New(int) hashing.Hasher { return f.h }

// leafHasher maps keys directly to a leaf index by returning a hash whose
// Reduce(·, w1) lands exactly on the index.
type leafHasher struct {
	m  map[string]int
	w1 int
}

func (h *leafHasher) Hash(key []byte) uint64 {
	idx := h.m[string(key)]
	// Reduce(h, n) = hi64(h*n); choosing h = idx * 2^64/n + 1 lands in
	// bucket idx for any idx < n.
	return uint64(idx)*(math.MaxUint64/uint64(h.w1)+1) + 1
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{K: 1, Trees: 1, MemoryBytes: 1 << 16},                         // arity too small
		{K: 8, Trees: 0, MemoryBytes: 1 << 16},                         // no trees
		{K: 8, Trees: 1},                                               // no sizing
		{K: 8, Trees: 1, MemoryBytes: 1 << 16, LeafWidth: 64},          // both sizings
		{K: 8, Trees: 1, MemoryBytes: 16},                              // too little memory
		{K: 8, Trees: 1, LeafWidth: 100},                               // misaligned leaf width
		{K: 8, Trees: 1, MemoryBytes: 1 << 16, Widths: []int{8}},       // one stage
		{K: 8, Trees: 1, MemoryBytes: 1 << 16, Widths: []int{8, 8}},    // non-increasing
		{K: 8, Trees: 1, MemoryBytes: 1 << 16, Widths: []int{1, 8}},    // width too small
		{K: 8, Trees: 1, MemoryBytes: 1 << 16, Widths: []int{16, 100}}, // width too large
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected config error for %+v", i, cfg)
		}
	}
}

func TestGeometry(t *testing.T) {
	s := newTest(t, Config{K: 8, Trees: 2, MemoryBytes: 1 << 20})
	if s.K() != 8 || s.NumTrees() != 2 || s.Depth() != 3 {
		t.Fatalf("geometry: k=%d d=%d depth=%d", s.K(), s.NumTrees(), s.Depth())
	}
	if s.LeafWidth()%64 != 0 {
		t.Errorf("leaf width %d not multiple of k^2", s.LeafWidth())
	}
	if s.MemoryBytes() > 1<<20 {
		t.Errorf("memory %d exceeds budget %d", s.MemoryBytes(), 1<<20)
	}
	// Budget utilization should be high (≥ 90%).
	if float64(s.MemoryBytes()) < 0.9*float64(1<<20) {
		t.Errorf("memory %d underuses budget %d", s.MemoryBytes(), 1<<20)
	}
	if got, want := s.StageMax(0), uint64(254); got != want {
		t.Errorf("stage-1 max %d want %d", got, want)
	}
	if got, want := s.StageMax(1), uint64(65534); got != want {
		t.Errorf("stage-2 max %d want %d", got, want)
	}
	w := s.Widths()
	w[0] = 99
	if s.Widths()[0] == 99 {
		t.Error("Widths() exposes internal slice")
	}
}

func TestPaperMemoryCheck(t *testing.T) {
	// §5: "For 1.3MB memory, w1·θ1 is about 133M using two 8-ary trees
	// with 8,16,32-bit counters".
	s := newTest(t, Config{K: 8, Trees: 2, MemoryBytes: 1.3e6})
	got := float64(s.LeafWidth()) * float64(s.StageMax(0))
	if got < 100e6 || got > 140e6 {
		t.Errorf("w1*theta1 = %g, paper says ~133M", got)
	}
}

func TestExactWhenSparse(t *testing.T) {
	s := defaultSmall(t)
	for i := uint64(0); i < 50; i++ {
		s.Update(k8(i), i+1)
	}
	for i := uint64(0); i < 50; i++ {
		if got := s.Estimate(k8(i)); got != i+1 {
			t.Errorf("flow %d: got %d want %d", i, got, i+1)
		}
	}
	if got := s.Estimate(k8(999)); got != 0 {
		t.Errorf("unseen flow: got %d want 0", got)
	}
}

func TestOverflowAcrossStages(t *testing.T) {
	// A single large flow must overflow the 8-bit and 16-bit stages and
	// still be counted exactly by the query.
	s := defaultSmall(t)
	const n = 1_000_000
	s.Update(k8(42), n)
	if got := s.Estimate(k8(42)); got != n {
		t.Errorf("large flow: got %d want %d", got, n)
	}
}

func TestBulkEqualsUnitUpdates(t *testing.T) {
	a := newTest(t, Config{K: 4, Trees: 2, LeafWidth: 64, Widths: []int{4, 8, 16}})
	b := newTest(t, Config{K: 4, Trees: 2, LeafWidth: 64, Widths: []int{4, 8, 16}})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		key := k8(uint64(rng.Intn(30)))
		inc := uint64(rng.Intn(40) + 1)
		a.Update(key, inc)
		for j := uint64(0); j < inc; j++ {
			b.Update(key, 1)
		}
	}
	for tr := 0; tr < 2; tr++ {
		for l := 0; l < 3; l++ {
			av, bv := a.StageValues(tr, l), b.StageValues(tr, l)
			for i := range av {
				if av[i] != bv[i] {
					t.Fatalf("tree %d stage %d idx %d: bulk %d unit %d", tr, l, i, av[i], bv[i])
				}
			}
		}
	}
}

func TestZeroIncrementIsNoop(t *testing.T) {
	s := defaultSmall(t)
	s.Update(k8(1), 0)
	if got := s.Estimate(k8(1)); got != 0 {
		t.Errorf("zero increment changed state: %d", got)
	}
}

func TestNeverUnderestimates(t *testing.T) {
	s := newTest(t, Config{K: 8, Trees: 2, LeafWidth: 512})
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		id := uint64(rng.Intn(3000))
		truth[id]++
		s.Update(k8(id), 1)
	}
	for id, c := range truth {
		if got := s.Estimate(k8(id)); got < c {
			t.Fatalf("flow %d underestimated: %d < %d", id, got, c)
		}
	}
}

func TestMoreTreesNotWorse(t *testing.T) {
	// Error with 3 trees of the same total memory shouldn't blow up, and
	// with the same per-tree size must be ≤ the 1-tree error.
	mk := func(trees int) *Sketch {
		return newTest(t, Config{K: 8, Trees: trees, LeafWidth: 512})
	}
	s1, s3 := mk(1), mk(3)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50000; i++ {
		id := uint64(rng.Intn(2000))
		truth[id]++
		s1.Update(k8(id), 1)
		s3.Update(k8(id), 1)
	}
	var e1, e3 float64
	for id, c := range truth {
		e1 += float64(s1.Estimate(k8(id)) - c)
		e3 += float64(s3.Estimate(k8(id)) - c)
	}
	if e3 > e1 {
		t.Errorf("3-tree error %f exceeds 1-tree error %f at same per-tree size", e3, e1)
	}
}

func TestPaperFigure4(t *testing.T) {
	// Reproduce the worked update/query example of Fig. 4: binary tree,
	// widths {2,4,8}, initial state C1=[3,0,2,3], C2=[15,4], C3=[9].
	// f1 hashes to leaf 2, f2 to leaf 0.
	h := &leafHasher{m: map[string]int{"f1": 2, "f2": 0}, w1: 4}
	s := newTest(t, Config{
		K: 2, Trees: 1, LeafWidth: 4, Widths: []int{2, 4, 8},
		Hash: &fixedFamily{h: h},
	})
	mustSet := func(l int, vals []uint32) {
		t.Helper()
		if err := s.SetStageValues(0, l, vals); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(0, []uint32{3, 0, 2, 3})
	mustSet(1, []uint32{15, 4})
	mustSet(2, []uint32{9})

	// Update f1: leaf 2 has value 2 = max(2-bit) → becomes 3 (marker) and
	// the increment moves to stage 2 node 1: 4 → 5.
	s.Update([]byte("f1"), 1)
	if got := s.StageValues(0, 0)[2]; got != 3 {
		t.Errorf("leaf 2 after update = %d, want 3 (marker)", got)
	}
	if got := s.StageValues(0, 1)[1]; got != 5 {
		t.Errorf("stage-2 node 1 after update = %d, want 5", got)
	}
	if got := s.StageValues(0, 2)[0]; got != 9 {
		t.Errorf("stage-3 node 0 must be untouched, got %d", got)
	}

	// Count queries (Fig. 4b): f1 = 2+5 = 7, f2 = 2+14+9 = 25.
	if got := s.Estimate([]byte("f1")); got != 7 {
		t.Errorf("count(f1) = %d, want 7", got)
	}
	if got := s.Estimate([]byte("f2")); got != 25 {
		t.Errorf("count(f2) = %d, want 25", got)
	}
}

func TestPaperFigure5Conversion(t *testing.T) {
	// Fig. 5: same tree state after the f1 update; conversion must yield
	// V=25/deg1 (paths through stage 3), V=0/deg1 (empty leaf 1), and
	// V=9/deg2 (leaves 2,3 merged at stage-2 node 1).
	s := newTest(t, Config{K: 2, Trees: 1, LeafWidth: 4, Widths: []int{2, 4, 8}})
	s.SetStageValues(0, 0, []uint32{3, 0, 3, 3})
	s.SetStageValues(0, 1, []uint32{15, 5})
	s.SetStageValues(0, 2, []uint32{9})

	vcs := s.VirtualCounters()[0]
	if len(vcs) != 3 {
		t.Fatalf("got %d virtual counters, want 3: %+v", len(vcs), vcs)
	}
	want := map[VirtualCounter]bool{
		{Value: 25, Degree: 1, Level: 3}: true,
		{Value: 0, Degree: 1, Level: 1}:  true,
		{Value: 9, Degree: 2, Level: 2}:  true,
	}
	for _, vc := range vcs {
		if !want[vc] {
			t.Errorf("unexpected virtual counter %+v", vc)
		}
		delete(want, vc)
	}
	for vc := range want {
		t.Errorf("missing virtual counter %+v", vc)
	}
}

func TestConversionPreservesTotalCount(t *testing.T) {
	s := newTest(t, Config{K: 4, Trees: 2, LeafWidth: 256, Widths: []int{4, 8, 16}})
	rng := rand.New(rand.NewSource(6))
	total := uint64(0)
	for i := 0; i < 30000; i++ {
		inc := uint64(rng.Intn(5) + 1)
		s.Update(k8(uint64(rng.Intn(500))), inc)
		total += inc
	}
	for tr, vcs := range s.VirtualCounters() {
		sum := uint64(0)
		degSum := 0
		for _, vc := range vcs {
			sum += vc.Value
			degSum += vc.Degree
		}
		if sum != s.TotalCount(tr) {
			t.Errorf("tree %d: VC sum %d != tree total %d", tr, sum, s.TotalCount(tr))
		}
		if sum != total {
			t.Errorf("tree %d: VC sum %d != stream total %d (final-stage saturation?)", tr, sum, total)
		}
		if degSum != s.LeafWidth() {
			t.Errorf("tree %d: degrees sum to %d, want w1=%d", tr, degSum, s.LeafWidth())
		}
	}
}

func TestConversionQuick(t *testing.T) {
	// Property: for random small streams, conversion preserves the total
	// and degrees sum to w1.
	f := func(ids []uint16, seed int64) bool {
		s, err := New(Config{K: 2, Trees: 1, LeafWidth: 32, Widths: []int{2, 4, 8, 16}})
		if err != nil {
			return false
		}
		total := uint64(0)
		for _, id := range ids {
			s.Update(k8(uint64(id%64)), 1)
			total++
		}
		vcs := s.VirtualCounters()[0]
		sum, deg := uint64(0), 0
		for _, vc := range vcs {
			sum += vc.Value
			deg += vc.Degree
		}
		return sum == total && deg == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDegreeHistogram(t *testing.T) {
	vcs := []VirtualCounter{
		{Value: 5, Degree: 1}, {Value: 0, Degree: 1}, {Value: 9, Degree: 2},
		{Value: 3, Degree: 2}, {Value: 8, Degree: 4},
	}
	h := DegreeHistogram(vcs)
	if h[1] != 1 || h[2] != 2 || h[4] != 1 {
		t.Errorf("histogram %v", h)
	}
	if len(DegreeHistogram(nil)) != 1 {
		t.Errorf("empty histogram should have length 1")
	}
}

func TestCardinality(t *testing.T) {
	s := newTest(t, Config{K: 8, Trees: 2, MemoryBytes: 1 << 18})
	const n = 5000
	for i := 0; i < n; i++ {
		s.Update(k8(uint64(i)), uint64(1+i%3))
	}
	got := s.Cardinality()
	if math.Abs(got-n)/n > 0.05 {
		t.Errorf("cardinality %f, want ~%d (±5%%)", got, n)
	}
}

func TestCardinalityEmpty(t *testing.T) {
	s := defaultSmall(t)
	if got := s.Cardinality(); got != 0 {
		t.Errorf("empty cardinality = %f", got)
	}
}

func TestCardinalitySaturated(t *testing.T) {
	// Fill every leaf: the estimator must return a finite saturated value.
	s := newTest(t, Config{K: 2, Trees: 1, LeafWidth: 4, Widths: []int{8, 16}})
	for i := 0; i < 10000; i++ {
		s.Update(k8(uint64(i)), 1)
	}
	got := s.Cardinality()
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("saturated cardinality = %f", got)
	}
}

func TestReset(t *testing.T) {
	s := defaultSmall(t)
	s.Update(k8(1), 1_000_000)
	s.Reset()
	if got := s.Estimate(k8(1)); got != 0 {
		t.Errorf("after reset: %d", got)
	}
	if got := s.EmptyLeaves(); got != float64(s.LeafWidth()) {
		t.Errorf("after reset empty leaves %f want %d", got, s.LeafWidth())
	}
}

func TestSetStageValuesErrors(t *testing.T) {
	s := defaultSmall(t)
	if err := s.SetStageValues(0, 0, []uint32{1}); err == nil {
		t.Error("expected length-mismatch error")
	}
}

func TestLastStageSaturation(t *testing.T) {
	// Overflowing the final stage must saturate, not wrap.
	s := newTest(t, Config{K: 2, Trees: 1, LeafWidth: 4, Widths: []int{2, 4}})
	s.Update(k8(7), 1000) // far beyond 2 + 14
	got := s.Estimate(k8(7))
	if got != 2+14 {
		t.Errorf("saturated estimate = %d, want 16", got)
	}
	s.Update(k8(7), 1)
	if s.Estimate(k8(7)) != 16 {
		t.Error("post-saturation update wrapped")
	}
}

func TestEstimateQuickOverestimates(t *testing.T) {
	s := newTest(t, Config{K: 4, Trees: 2, LeafWidth: 64, Widths: []int{4, 8, 32}})
	truth := map[string]uint64{}
	f := func(key []byte, inc8 uint8) bool {
		inc := uint64(inc8%16) + 1
		s.Update(key, inc)
		truth[string(key)] += inc
		return s.Estimate(key) >= truth[string(key)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUpdateFCM(b *testing.B) {
	s, err := New(Config{K: 8, Trees: 2, MemoryBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	var key [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(key[:], uint64(i%100000))
		s.Update(key[:], 1)
	}
}

func BenchmarkEstimateFCM(b *testing.B) {
	s, err := New(Config{K: 8, Trees: 2, MemoryBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	var key [8]byte
	for i := 0; i < 100000; i++ {
		binary.LittleEndian.PutUint64(key[:], uint64(i))
		s.Update(key[:], 1)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(key[:], uint64(i%100000))
		sink += s.Estimate(key[:])
	}
	_ = sink
}

func BenchmarkVirtualCounters(b *testing.B) {
	s, err := New(Config{K: 8, Trees: 2, MemoryBytes: 1 << 18})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		s.Update(k8(uint64(rng.Intn(5000))), 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.VirtualCounters(); len(got) != 2 {
			b.Fatal("bad conversion")
		}
	}
}

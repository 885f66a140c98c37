package em

import (
	"math"
	"math/rand"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/exact"
	"github.com/fcmsketch/fcm/internal/metrics"
	"github.com/fcmsketch/fcm/internal/packet"
)

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("expected error for missing W1")
	}
	if _, err := Run(Config{W1: 10}, nil); err == nil {
		t.Error("expected error for no trees")
	}
}

func TestEmptySketch(t *testing.T) {
	res, err := Run(Config{W1: 16}, [][]core.VirtualCounter{{
		{Value: 0, Degree: 1}, {Value: 0, Degree: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 0 {
		t.Errorf("empty sketch N = %f", res.N)
	}
}

func TestPartitionEnumeration(t *testing.T) {
	collect := func(v uint64, maxParts int, minPart uint64) [][]uint64 {
		var out [][]uint64
		forEachPartition(v, maxParts, minPart, func(p []uint64) {
			cp := append([]uint64(nil), p...)
			out = append(out, cp)
		})
		return out
	}
	// Partitions of 5 into ≤ 2 parts: {5}, {4,1}, {3,2}.
	got := collect(5, 2, 1)
	if len(got) != 3 {
		t.Fatalf("partitions of 5 into ≤2: %v", got)
	}
	// Partitions of 6 into ≤ 3 parts: 7 of them.
	if got := collect(6, 3, 1); len(got) != 7 {
		t.Fatalf("partitions of 6 into ≤3: %d", len(got))
	}
	// With minPart 3: {6}, {3,3}.
	if got := collect(6, 3, 3); len(got) != 2 {
		t.Fatalf("partitions of 6 with min 3: %v", got)
	}
	// Every partition sums to v and is non-increasing.
	for _, p := range collect(12, 4, 1) {
		sum := uint64(0)
		for i, x := range p {
			sum += x
			if i > 0 && x > p[i-1] {
				t.Fatalf("not non-increasing: %v", p)
			}
		}
		if sum != 12 {
			t.Fatalf("partition %v sums to %d", p, sum)
		}
	}
}

func TestPartitionAtMostZero(t *testing.T) {
	calls := 0
	forEachPartitionAtMost(0, 3, func(p []uint64) {
		if len(p) != 0 {
			t.Errorf("zero partition has parts %v", p)
		}
		calls++
	})
	if calls != 1 {
		t.Errorf("zero value should yield exactly one empty partition, got %d", calls)
	}
}

func TestPaperExampleCombinations(t *testing.T) {
	// §4.3: virtual counter V=9, degree 2, binary tree with 2-bit leaves
	// (θ1 = 2): the feasible 2-flow combinations are {3,6} and {4,5}.
	e := &engine{cfg: Config{W1: 4, Theta1: 2, EnumCap: 500}}
	g := &group{degree: 2, value: 9, count: 1}
	var combos [][]uint64
	ok := e.enumerate(g, func(p []uint64) {
		combos = append(combos, append([]uint64(nil), p...))
	})
	if !ok {
		t.Fatal("enumeration refused")
	}
	if len(combos) != 2 {
		t.Fatalf("combos = %v, want exactly {6,3} and {5,4}", combos)
	}
	want := map[[2]uint64]bool{{6, 3}: true, {5, 4}: true}
	for _, c := range combos {
		if len(c) != 2 || !want[[2]uint64{c[0], c[1]}] {
			t.Errorf("unexpected combination %v", c)
		}
	}
}

func TestInfeasibleDegreeTwo(t *testing.T) {
	// V=3 with degree 2 and θ1=2 requires ≥ 2·3=6 total: infeasible, so
	// the engine must fall back rather than emit combos.
	e := &engine{cfg: Config{W1: 4, Theta1: 2, EnumCap: 500}}
	g := &group{degree: 2, value: 3, count: 1}
	if ok := e.enumerate(g, func([]uint64) {}); ok {
		t.Error("expected deterministic fallback for infeasible counter")
	}
}

func TestDeterministicLargeCounter(t *testing.T) {
	e := &engine{cfg: Config{W1: 4, Theta1: 254, EnumCap: 100}}
	acc := make([]float64, 100001)
	// Degree 3 elephant of 100000: one flow of 100000−2·255, two of 255.
	e.resolveDeterministic(&group{degree: 3, value: 100000, count: 2}, 2, acc)
	if acc[100000-2*255] != 2 {
		t.Errorf("dominant flow weight %f", acc[100000-2*255])
	}
	if acc[255] != 4 {
		t.Errorf("minimal flow weight %f", acc[255])
	}
}

func TestSingleFlowRecovered(t *testing.T) {
	// One VC of value 40 and degree 1 with tiny w1: EM should put most
	// mass near size 40 (single-flow explanation dominates when the
	// expected load per counter is low).
	trees := [][]core.VirtualCounter{{
		{Value: 40, Degree: 1, Level: 1},
	}}
	res, err := Run(Config{W1: 1024, Theta1: 254, Iterations: 10, Workers: 1}, trees)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.N-1) > 0.2 {
		t.Errorf("N = %f, want ~1", res.N)
	}
	if res.Dist[40] < 0.8 {
		t.Errorf("mass at size 40 = %f, want ~1; dist around: %v", res.Dist[40], res.Dist[35:])
	}
}

// synthesize runs a stream through a real FCM sketch, converts, runs EM and
// returns (truth tracker, result).
func synthesize(t *testing.T, workers int) (*exact.Tracker, *Result) {
	t.Helper()
	s, err := core.New(core.Config{K: 8, Trees: 2, LeafWidth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	tracker := exact.New()
	rng := rand.New(rand.NewSource(42))
	// Skewed flows: many mice, few elephants.
	for f := 0; f < 3000; f++ {
		size := 1 + rng.Intn(3)
		if f%100 == 0 {
			size = 200 + rng.Intn(800)
		}
		var key [8]byte
		key[0] = byte(f)
		key[1] = byte(f >> 8)
		key[2] = byte(f >> 16)
		var pk [13]byte
		copy(pk[:], key[:])
		for i := 0; i < size; i++ {
			s.Update(key[:], 1)
		}
		tracker.UpdateKey(keyOf(key), uint64(size))
	}
	res, err := RunSketch(s, &Options{Iterations: 6, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return tracker, res
}

func keyOf(b [8]byte) (k packet.Key) { copy(k.Buf[:], b[:]); k.Len = 8; return }

func TestEMRecoverDistribution(t *testing.T) {
	tracker, res := synthesize(t, 1)
	truth := distOf(tracker)
	w := metrics.WMRE(truth, res.Dist)
	if w > 0.5 {
		t.Errorf("WMRE %f too high", w)
	}
	// Total flow estimate within 15%.
	if math.Abs(res.N-3000)/3000 > 0.15 {
		t.Errorf("N = %f, want ~3000", res.N)
	}
	// Estimated entropy close to true entropy.
	he := Entropy(res.Dist)
	ht := tracker.Entropy()
	if metrics.RE(ht, he) > 0.1 {
		t.Errorf("entropy RE %f (est %f true %f)", metrics.RE(ht, he), he, ht)
	}
}

func TestEMParallelMatchesSerial(t *testing.T) {
	_, serial := synthesize(t, 1)
	_, par := synthesize(t, 4)
	if len(serial.Dist) != len(par.Dist) {
		t.Fatalf("dist lengths differ: %d vs %d", len(serial.Dist), len(par.Dist))
	}
	for j := range serial.Dist {
		if math.Abs(serial.Dist[j]-par.Dist[j]) > 1e-6*(1+serial.Dist[j]) {
			t.Fatalf("size %d: serial %f parallel %f", j, serial.Dist[j], par.Dist[j])
		}
	}
}

// TestRunBitwiseReproducible: EM on identical registers returns the same
// bits on every run, serial or parallel. Group order and the order of the
// per-worker partial sums are fixed, so neither map iteration nor
// goroutine scheduling reaches the floating-point sums.
func TestRunBitwiseReproducible(t *testing.T) {
	s, err := core.New(core.Config{K: 8, Trees: 2, LeafWidth: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var key [4]byte
	for f := 0; f < 400; f++ {
		key[0], key[1] = byte(f), byte(f>>8)
		s.Update(key[:], uint64(1+rng.Intn(40)))
	}
	vcs := s.VirtualCounters()
	for _, workers := range []int{1, 2} {
		cfg := Config{W1: s.LeafWidth(), Theta1: s.StageMax(0), Iterations: 4, Workers: workers}
		first, err := Run(cfg, vcs)
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run < 20; run++ {
			res, err := Run(cfg, vcs)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(res.N) != math.Float64bits(first.N) || len(res.Dist) != len(first.Dist) {
				t.Fatalf("workers %d run %d: N %v (%d sizes), first run %v (%d sizes)",
					workers, run, res.N, len(res.Dist), first.N, len(first.Dist))
			}
			for j := range res.Dist {
				if math.Float64bits(res.Dist[j]) != math.Float64bits(first.Dist[j]) {
					t.Fatalf("workers %d run %d: size %d is %v, first run %v", workers, run, j, res.Dist[j], first.Dist[j])
				}
			}
		}
	}
}

func TestOnIterationCallback(t *testing.T) {
	trees := [][]core.VirtualCounter{{{Value: 5, Degree: 1}}}
	var iters []int
	_, err := Run(Config{W1: 64, Iterations: 3, Workers: 1,
		OnIteration: func(it int, dist []float64) { iters = append(iters, it) },
	}, trees)
	if err != nil {
		t.Fatal(err)
	}
	if len(iters) != 3 || iters[0] != 1 || iters[2] != 3 {
		t.Errorf("iteration callbacks: %v", iters)
	}
}

func TestTotalCountConservedApproximately(t *testing.T) {
	// EM should roughly conserve total packets: Σ j·n_j ≈ Σ VC values.
	trees := [][]core.VirtualCounter{{
		{Value: 10, Degree: 1}, {Value: 3, Degree: 1}, {Value: 7, Degree: 1},
	}}
	res, err := Run(Config{W1: 64, Iterations: 8, Workers: 1}, trees)
	if err != nil {
		t.Fatal(err)
	}
	mass := 0.0
	for j := 1; j < len(res.Dist); j++ {
		mass += float64(j) * res.Dist[j]
	}
	if math.Abs(mass-20) > 0.5 {
		t.Errorf("packet mass %f, want ~20", mass)
	}
}

func distOf(tr *exact.Tracker) []float64 { return tr.Distribution() }

func BenchmarkEMIterationSerial(b *testing.B)   { benchEM(b, 1) }
func BenchmarkEMIterationParallel(b *testing.B) { benchEM(b, 0) }

func benchEM(b *testing.B, workers int) {
	s, err := core.New(core.Config{K: 8, Trees: 2, LeafWidth: 32768})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for f := 0; f < 40000; f++ {
		size := 1 + rng.Intn(4)
		if f%200 == 0 {
			size = 500 + rng.Intn(2000)
		}
		var key [8]byte
		key[0], key[1], key[2] = byte(f), byte(f>>8), byte(f>>16)
		s.Update(key[:], uint64(size))
	}
	vcs := s.VirtualCounters()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{W1: s.LeafWidth(), Theta1: s.StageMax(0),
			Iterations: 1, Workers: workers}, vcs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEntropyMatchesTracker(t *testing.T) {
	tr := exact.New()
	counts := []uint64{1, 1, 2, 3, 5, 8, 13, 21}
	for i, c := range counts {
		tr.UpdateKey(keyOf([8]byte{byte(i)}), c)
	}
	got := Entropy(tr.Distribution())
	want := tr.Entropy()
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("distribution entropy %f, tracker entropy %f", got, want)
	}
	if Entropy(nil) != 0 {
		t.Error("entropy of empty distribution should be 0")
	}
}

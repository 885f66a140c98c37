package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// buildOrderRoundRobin is the original arrival-order loop, kept as the
// oracle for buildOrder: every round passes over all flows and emits one
// packet of each flow that still has some. perfbench replays the order,
// so buildOrder must emit exactly this sequence, shuffled or not.
func buildOrderRoundRobin(rng *rand.Rand, sizes []uint32, shuffle bool) []uint32 {
	total := 0
	for _, s := range sizes {
		total += int(s)
	}
	order := make([]uint32, 0, total)
	remaining := make([]uint32, len(sizes))
	copy(remaining, sizes)
	for left := total; left > 0; {
		emitted := false
		for id := range remaining {
			if remaining[id] > 0 {
				order = append(order, uint32(id))
				remaining[id]--
				left--
				emitted = true
			}
		}
		if !emitted {
			break
		}
	}
	if shuffle {
		rng.Shuffle(len(order), func(i, j int) {
			order[i], order[j] = order[j], order[i]
		})
	}
	return order
}

// TestBuildOrderMatchesRoundRobin: the linear buildOrder emits the same
// order as the round-robin oracle — and leaves the generator in the same
// state — on rank-Zipf, size-Zipf and random size vectors (zero-size
// flows included), at several seeds and sizes, with and without shuffle.
func TestBuildOrderMatchesRoundRobin(t *testing.T) {
	base := testSeed(t, 1)
	for _, seed := range []int64{base, base + 6, base + 41} {
		for _, total := range []int{1, 97, 10_000, 1 << 17} {
			rng := rand.New(rand.NewSource(seed))
			random := make([]uint32, 1+rng.Intn(500))
			for i := range random {
				if rng.Intn(4) != 0 {
					random[i] = uint32(rng.Intn(1 + total/len(random)*2))
				}
			}
			shapes := map[string][]uint32{
				"rank-zipf": rankZipfSizes(total, 1.0, 40),
				"size-zipf": sizeZipfSizes(rng, total, 1.1, 10, 0),
				"random":    random,
			}
			for name, sizes := range shapes {
				for _, shuffle := range []bool{false, true} {
					t.Run(fmt.Sprintf("seed=%d/total=%d/%s/shuffle=%v", seed, total, name, shuffle), func(t *testing.T) {
						gotRng := rand.New(rand.NewSource(seed))
						wantRng := rand.New(rand.NewSource(seed))
						got := buildOrder(gotRng, sizes, shuffle)
						want := buildOrderRoundRobin(wantRng, sizes, shuffle)
						if !slices.Equal(got, want) {
							i := 0
							for i < min(len(got), len(want)) && got[i] == want[i] {
								i++
							}
							t.Fatalf("orders differ at packet %d of %d/%d", i, len(got), len(want))
						}
						if gotRng.Uint64() != wantRng.Uint64() {
							t.Fatal("generator state differs after building the order")
						}
					})
				}
			}
		}
	}
}

// BenchmarkBuildOrderCAIDALike measures the arrival-order build of the
// perfbench trace's size vector (2 Mi packets, shuffled).
func BenchmarkBuildOrderCAIDALike(b *testing.B) {
	sizes := rankZipfSizes(1<<21, 1.0, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildOrder(rand.New(rand.NewSource(1)), sizes, true)
	}
}

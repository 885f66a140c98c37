package window

import (
	"math/rand"
	"testing"
)

// TestRingNilsVacatedBucketSlots: retention trims the oldest buckets and
// coarsening compacts the slice in place; neither may leave a pointer to a
// dropped bucket in the backing array past the slice length, where it
// would keep a whole sketch reachable until the next reallocation.
func TestRingNilsVacatedBucketSlots(t *testing.T) {
	const maxW = 8
	r := testRing(t, maxW, 2)
	for w := 0; w < maxW+21; w++ {
		if err := r.Update(key(uint32(w)), 1); err != nil {
			t.Fatal(err)
		}
		if err := r.Rotate(); err != nil {
			t.Fatal(err)
		}
		if w%5 == 4 {
			r.Coarsen()
		}
		r.mu.Lock()
		tail := r.buckets[len(r.buckets):cap(r.buckets)]
		for i, b := range tail {
			if b != nil {
				t.Errorf("rotation %d: slot len+%d of the bucket array still holds generations [%d,%d]",
					w+1, i, b.firstGen, b.lastGen)
			}
		}
		r.mu.Unlock()
	}
	if st := r.Stats(); st.DroppedWindows == 0 || st.CoarsenMerges == 0 {
		t.Fatalf("ring never dropped (%d) or coarsened (%d): test exercises nothing",
			st.DroppedWindows, st.CoarsenMerges)
	}
}

// lowestOverfullByCount is the counting reference for
// lowestOverfullLocked: tally every level, pick the lowest over the cap,
// and report its oldest index. It needs no ordering assumption.
func lowestOverfullByCount(bs []*bucket, spanCap int) (int, int) {
	counts := make(map[int]int)
	oldest := make(map[int]int)
	for i, b := range bs {
		if counts[b.level] == 0 {
			oldest[b.level] = i
		}
		counts[b.level]++
	}
	best := -1
	for lvl, c := range counts {
		if c > spanCap && (best < 0 || lvl < best) {
			best = lvl
		}
	}
	if best < 0 {
		return -1, -1
	}
	return best, oldest[best]
}

// TestLowestOverfullMatchesCounting: on random bucket sequences with
// non-increasing levels (the ring's invariant), the single backward pass
// over level runs agrees with the counting reference.
func TestLowestOverfullMatchesCounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 2000; trial++ {
		spanCap := 1 + rng.Intn(3)
		r := &Ring{cfg: Config{SpanCap: spanCap}}
		lvl := rng.Intn(6)
		for n := rng.Intn(16); n > 0; n-- {
			r.buckets = append(r.buckets, &bucket{level: lvl})
			if lvl > 0 && rng.Intn(3) == 0 {
				lvl -= 1 + rng.Intn(lvl)
			}
		}
		gotL, gotI := r.lowestOverfullLocked()
		wantL, wantI := lowestOverfullByCount(r.buckets, spanCap)
		if gotL != wantL || gotI != wantI {
			levels := make([]int, len(r.buckets))
			for i, b := range r.buckets {
				levels[i] = b.level
			}
			t.Fatalf("levels %v cap %d: got (%d,%d), want (%d,%d)",
				levels, spanCap, gotL, gotI, wantL, wantI)
		}
	}
}

// TestLowestOverfullAllocs: the coarsening scan runs under the ring lock
// on every Rotate and must not allocate, however many levels the ring
// holds (ten levels here, past any small-map stack allocation).
func TestLowestOverfullAllocs(t *testing.T) {
	r := testRing(t, 1024, 1)
	fillWindows(t, r, 1023, 1)
	if lv := r.Stats().MaxLevel; lv < 9 {
		t.Fatalf("ring reached level %d, want >= 9", lv)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if avg := testing.AllocsPerRun(100, func() { r.lowestOverfullLocked() }); avg != 0 {
		t.Errorf("lowestOverfullLocked allocates %.1f per call, want 0", avg)
	}
}

// TestRingUpdateBatchAllocs: batched ingest into an owned ring goes
// straight to the sharded data plane and is allocation-free.
func TestRingUpdateBatchAllocs(t *testing.T) {
	r := testRing(t, 8, 2)
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = key(uint32(i))
	}
	if avg := testing.AllocsPerRun(50, func() {
		if err := r.UpdateBatch(keys, 1); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("Ring.UpdateBatch allocates %.1f per call, want 0", avg)
	}
}

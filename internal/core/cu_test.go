package core

import (
	"math/rand"
	"testing"
)

func cuPair(t *testing.T) (plain, cu *Sketch) {
	t.Helper()
	plain = newTest(t, Config{K: 8, Trees: 2, LeafWidth: 512})
	cu = newTest(t, Config{K: 8, Trees: 2, LeafWidth: 512, Conservative: true})
	return plain, cu
}

func TestCUNeverUnderestimates(t *testing.T) {
	_, cu := cuPair(t)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 100000; i++ {
		id := uint64(rng.Intn(3000))
		inc := uint64(1 + rng.Intn(3))
		truth[id] += inc
		cu.Update(k8(id), inc)
	}
	for id, c := range truth {
		if got := cu.Estimate(k8(id)); got < c {
			t.Fatalf("flow %d underestimated: %d < %d", id, got, c)
		}
	}
}

func TestCUNotWorseThanPlain(t *testing.T) {
	plain, cu := cuPair(t)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 100000; i++ {
		id := uint64(rng.Intn(3000))
		truth[id]++
		plain.Update(k8(id), 1)
		cu.Update(k8(id), 1)
	}
	var errPlain, errCU float64
	for id, c := range truth {
		errPlain += float64(plain.Estimate(k8(id)) - c)
		errCU += float64(cu.Estimate(k8(id)) - c)
	}
	if errPlain == 0 {
		t.Fatal("no collisions; shrink the sketch")
	}
	if errCU > errPlain {
		t.Errorf("CU total error %f exceeds plain %f", errCU, errPlain)
	}
}

func TestCUSingleTreeIsPlain(t *testing.T) {
	a := newTest(t, Config{K: 8, Trees: 1, LeafWidth: 512})
	b := newTest(t, Config{K: 8, Trees: 1, LeafWidth: 512, Conservative: true})
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 20000; i++ {
		key := k8(uint64(rng.Intn(1000)))
		a.Update(key, 1)
		b.Update(key, 1)
	}
	if d := a.FirstRegisterDiff(b); d != "" {
		t.Fatalf("single-tree CU diverged: %s", d)
	}
}

func TestCUExactWhenSparse(t *testing.T) {
	cu := newTest(t, Config{K: 8, Trees: 2, LeafWidth: 4096, Conservative: true})
	for i := uint64(0); i < 50; i++ {
		cu.Update(k8(i), i*7+1)
	}
	for i := uint64(0); i < 50; i++ {
		if got := cu.Estimate(k8(i)); got != i*7+1 {
			t.Errorf("flow %d: %d want %d", i, got, i*7+1)
		}
	}
}

func TestFlagBitHalvesCapacity(t *testing.T) {
	s := newTest(t, Config{K: 2, Trees: 1, LeafWidth: 4, Widths: []int{8, 16}, FlagBitIndicator: true})
	if got := s.StageMax(0); got != 127 {
		t.Errorf("flag-bit stage-1 capacity %d, want 127", got)
	}
	if got := s.StageMax(1); got != 32767 {
		t.Errorf("flag-bit stage-2 capacity %d, want 32767", got)
	}
	// Counting still works across the overflow boundary.
	s.Update(k8(1), 500)
	if got := s.Estimate(k8(1)); got != 500 {
		t.Errorf("flag-bit estimate %d want 500", got)
	}
}

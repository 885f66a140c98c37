package pyramid

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func k(i uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], i)
	return b[:]
}

func newTest(t testing.TB, mem int) *Sketch {
	t.Helper()
	s, err := New(Config{MemoryBytes: mem})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{MemoryBytes: 4}); err == nil {
		t.Error("expected error for tiny memory")
	}
	if _, err := New(Config{MemoryBytes: 1024, Hashes: 99}); err == nil {
		t.Error("expected error for too many hashes")
	}
}

func TestSmallCountsExact(t *testing.T) {
	s := newTest(t, 1<<16)
	for i := uint64(0); i < 20; i++ {
		for j := uint64(0); j <= i; j++ {
			s.Update(k(i), 1)
		}
	}
	for i := uint64(0); i < 20; i++ {
		if got := s.Estimate(k(i)); got != i+1 {
			t.Errorf("flow %d: got %d want %d", i, got, i+1)
		}
	}
}

func TestCarryAcrossLayers(t *testing.T) {
	// With the default independent hashing, a count far above the 4-bit
	// layer-1 capacity reconstructs exactly (no sibling carries on the
	// path).
	s := newTest(t, 1<<16)
	const n = 100000
	s.Update(k(7), n)
	if got := s.Estimate(k(7)); got != n {
		t.Errorf("large flow: got %d want %d", got, n)
	}
}

func TestWordAccelerationOverestimatesElephants(t *testing.T) {
	// Word acceleration merges the d carry paths a few layers up, so the
	// reconstruction of a single huge flow overshoots — never below the
	// truth, usually far above it.
	s, err := New(Config{MemoryBytes: 1 << 16, WordAcceleration: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	s.Update(k(7), n)
	got := s.Estimate(k(7))
	if got < n {
		t.Fatalf("underestimate: %d < %d", got, n)
	}
	if got == n {
		t.Logf("note: d counters did not share ancestors for this key")
	}
}

func TestBulkEqualsUnit(t *testing.T) {
	a := newTest(t, 1<<12)
	b := newTest(t, 1<<12)
	// Identical configs share hash functions, so states must match.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		key := k(uint64(rng.Intn(20)))
		inc := uint64(rng.Intn(30) + 1)
		a.Update(key, inc)
		for j := uint64(0); j < inc; j++ {
			b.Update(key, 1)
		}
	}
	for i := uint64(0); i < 20; i++ {
		if a.Estimate(k(i)) != b.Estimate(k(i)) {
			t.Fatalf("flow %d: bulk %d unit %d", i, a.Estimate(k(i)), b.Estimate(k(i)))
		}
	}
}

func TestNeverUnderestimates(t *testing.T) {
	s := newTest(t, 1<<12)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30000; i++ {
		id := uint64(rng.Intn(800))
		truth[id]++
		s.Update(k(id), 1)
	}
	for id, c := range truth {
		if got := s.Estimate(k(id)); got < c {
			t.Fatalf("flow %d underestimated: %d < %d", id, got, c)
		}
	}
}

func TestQuickOverestimate(t *testing.T) {
	s := newTest(t, 1<<10)
	truth := map[string]uint64{}
	f := func(key []byte, inc8 uint8) bool {
		inc := uint64(inc8) + 1
		s.Update(key, inc)
		truth[string(key)] += inc
		return s.Estimate(key) >= truth[string(key)]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestMemoryAccounting(t *testing.T) {
	s := newTest(t, 1<<14)
	got := s.MemoryBytes()
	if got > 1<<14 || got < (1<<14)/2 {
		t.Errorf("memory %d not within (budget/2, budget] of %d", got, 1<<14)
	}
}

func TestReset(t *testing.T) {
	s := newTest(t, 1<<12)
	s.Update(k(3), 100000)
	s.Reset()
	if got := s.Estimate(k(3)); got != 0 {
		t.Errorf("after reset %d", got)
	}
}

func BenchmarkUpdatePCM(b *testing.B) {
	s := newTest(b, 1<<20)
	var key [8]byte
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(key[:], uint64(i%100000))
		s.Update(key[:], 1)
	}
}

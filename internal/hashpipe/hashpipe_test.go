package hashpipe

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

func k(i uint64) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(i))
	return b[:]
}

func newTest(t testing.TB, mem int) *Sketch {
	t.Helper()
	s, err := New(Config{MemoryBytes: mem, Stages: 6})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewErrors(t *testing.T) {
	if _, err := New(Config{MemoryBytes: 100, Stages: 0}); err == nil {
		t.Error("expected stages error")
	}
	if _, err := New(Config{MemoryBytes: 4, Stages: 6}); err == nil {
		t.Error("expected memory error")
	}
	if _, err := New(Config{MemoryBytes: 100, Stages: 2, KeySize: 20}); err == nil {
		t.Error("expected key size error")
	}
}

func TestSingleFlowExact(t *testing.T) {
	s := newTest(t, 1<<14)
	for i := 0; i < 100; i++ {
		s.Update(k(1), 1)
	}
	if got := s.Estimate(k(1)); got != 100 {
		t.Errorf("estimate %d want 100", got)
	}
}

func TestHeavyHittersSurviveChurn(t *testing.T) {
	s := newTest(t, 1<<14)
	rng := rand.New(rand.NewSource(1))
	truth := map[uint64]uint64{}
	// 20 heavy flows interleaved with 20000 mice.
	stream := make([]uint64, 0, 60000)
	for h := uint64(0); h < 20; h++ {
		for i := 0; i < 2000; i++ {
			stream = append(stream, h)
		}
	}
	for m := 0; m < 20000; m++ {
		stream = append(stream, 1000+uint64(rng.Intn(15000)))
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	for _, id := range stream {
		truth[id]++
		s.Update(k(id), 1)
	}
	hh := s.HeavyHitters(1000)
	found := 0
	for h := uint64(0); h < 20; h++ {
		if _, ok := hh[string(k(h))]; ok {
			found++
		}
	}
	if found < 18 {
		t.Errorf("only %d/20 heavy flows retained", found)
	}
	// Precision: almost everything reported should truly be heavy.
	falsePos := 0
	for key := range hh {
		var id uint64
		id = uint64(binary.LittleEndian.Uint32([]byte(key)))
		if truth[id] < 800 {
			falsePos++
		}
	}
	if falsePos > 2 {
		t.Errorf("%d false positives above threshold", falsePos)
	}
}

func TestEvictionKeepsLarger(t *testing.T) {
	// Two flows colliding at stage 1: the pipeline must retain both via
	// downstream stages (merge/claim), so neither count is lost entirely.
	s := newTest(t, 1<<12)
	for i := 0; i < 500; i++ {
		s.Update(k(1), 1)
		s.Update(k(2), 1)
	}
	e1, e2 := s.Estimate(k(1)), s.Estimate(k(2))
	if e1 == 0 && e2 == 0 {
		t.Error("both flows lost")
	}
	if e1 > 500 || e2 > 500 {
		t.Errorf("overcount: %d %d", e1, e2)
	}
}

func TestUnknownFlowZero(t *testing.T) {
	s := newTest(t, 1<<12)
	s.Update(k(1), 5)
	if got := s.Estimate(k(99)); got != 0 {
		t.Errorf("unknown flow estimate %d", got)
	}
}

func TestMemoryAccounting(t *testing.T) {
	s, err := New(Config{MemoryBytes: 9600, Stages: 6, KeySize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.MemoryBytes() > 9600 {
		t.Errorf("memory %d over budget", s.MemoryBytes())
	}
}

func TestReset(t *testing.T) {
	s := newTest(t, 1<<12)
	s.Update(k(1), 100)
	s.Reset()
	if got := s.Estimate(k(1)); got != 0 {
		t.Errorf("after reset %d", got)
	}
	if len(s.HeavyHitters(1)) != 0 {
		t.Error("heavy hitters after reset")
	}
}

func BenchmarkUpdateHashPipe(b *testing.B) {
	s := newTest(b, 1<<18)
	var key [4]byte
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint32(key[:], uint32(i%50000))
		s.Update(key[:], 1)
	}
}

package fcm

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"github.com/fcmsketch/fcm/internal/metrics"
	"github.com/fcmsketch/fcm/internal/window"
)

// The benchmark harness (perfbench) configures window rings with the
// public types: a ring's sketch geometry is a Config value and its EM
// options are *EMOptions. These stop compiling if either is no longer
// the type the ring takes.
var _ = window.Config{Sketch: Config{MemoryBytes: 1 << 20}}

var _ func(*window.Ring, window.Lookback, *EMOptions) ([]float64, window.Coverage, error) = (*window.Ring).FSDOverTime

func k(i uint64) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(i))
	return b[:]
}

func TestNewSketchDefaults(t *testing.T) {
	s, err := NewSketch(Config{MemoryBytes: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config()
	if cfg.K != 8 || cfg.Trees != 2 || len(cfg.Widths) != 3 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if s.MemoryBytes() > 1<<18 {
		t.Errorf("memory %d over budget", s.MemoryBytes())
	}
}

func TestNewSketchErrors(t *testing.T) {
	if _, err := NewSketch(Config{}); err == nil {
		t.Error("expected error for no sizing")
	}
	if _, err := NewSketch(Config{MemoryBytes: 8}); err == nil {
		t.Error("expected error for tiny memory")
	}
}

func TestSketchRoundTrip(t *testing.T) {
	s, err := NewSketch(Config{LeafWidth: 8192})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		s.Update(k(i), (i+1)*3)
	}
	for i := uint64(0); i < 100; i++ {
		if got := s.Estimate(k(i)); got != (i+1)*3 {
			t.Errorf("flow %d: %d want %d", i, got, (i+1)*3)
		}
	}
	if !s.IsHeavyHitter(k(99), 300) {
		t.Error("flow 99 should be a heavy hitter at 300")
	}
	if s.IsHeavyHitter(k(0), 4) {
		t.Error("flow 0 should not be a heavy hitter at 4")
	}
}

func TestSketchHeavyHitters(t *testing.T) {
	s, _ := NewSketch(Config{LeafWidth: 8192})
	var candidates [][]byte
	for i := uint64(0); i < 50; i++ {
		s.Update(k(i), (i+1)*10)
		candidates = append(candidates, k(i))
	}
	hh := s.HeavyHitters(candidates, 400)
	if len(hh) != 11 { // flows 39..49 have counts 400..500
		t.Errorf("heavy hitters: %d, want 11", len(hh))
	}
}

func TestSketchCardinalityAndReset(t *testing.T) {
	s, _ := NewSketch(Config{MemoryBytes: 1 << 18})
	for i := uint64(0); i < 3000; i++ {
		s.Update(k(i), 1)
	}
	if got := s.Cardinality(); math.Abs(got-3000)/3000 > 0.05 {
		t.Errorf("cardinality %f", got)
	}
	s.Reset()
	if got := s.Cardinality(); got != 0 {
		t.Errorf("cardinality after reset %f", got)
	}
}

func TestSeedChangesHashing(t *testing.T) {
	a, _ := NewSketch(Config{LeafWidth: 512, Seed: 1})
	b, _ := NewSketch(Config{LeafWidth: 512, Seed: 2})
	a.Update(k(7), 1)
	b.Update(k(7), 1)
	same := true
	for l := 0; l < 3 && same; l++ {
		same = bytes.Equal(a.Core().AppendStageBytes(nil, 0, l), b.Core().AppendStageBytes(nil, 0, l))
	}
	if same {
		t.Error("different seeds produced identical placements")
	}
}

func TestFlowSizeDistribution(t *testing.T) {
	s, err := NewSketch(Config{LeafWidth: 16384})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	truth := make([]float64, 3001)
	for f := uint64(0); f < 5000; f++ {
		size := 1 + rng.Intn(4)
		if f%100 == 0 {
			size = 500 + rng.Intn(2000)
		}
		s.Update(k(f), uint64(size))
		truth[size]++
	}
	dist, err := s.FlowSizeDistribution(&EMOptions{Iterations: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w := metrics.WMRE(truth, dist); w > 0.4 {
		t.Errorf("WMRE %f", w)
	}
}

func TestTopKSketch(t *testing.T) {
	tk, err := NewTopK(TopKConfig{Config: Config{MemoryBytes: 1 << 18}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	stream := make([]uint64, 0, 100000)
	for h := uint64(0); h < 10; h++ {
		for i := 0; i < 4000; i++ {
			stream = append(stream, h)
		}
	}
	for m := 0; m < 60000; m++ {
		stream = append(stream, 100+uint64(rng.Intn(30000)))
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	truth := map[uint64]uint64{}
	for _, id := range stream {
		truth[id]++
		tk.Update(k(id), 1)
	}
	// Heavy flows: near-exact estimates and enumerable.
	hh := tk.HeavyHitters(3500)
	for h := uint64(0); h < 10; h++ {
		got, ok := hh[string(k(h))]
		if !ok {
			t.Errorf("heavy flow %d missed", h)
			continue
		}
		if math.Abs(float64(got)-4000) > 200 {
			t.Errorf("heavy flow %d: estimate %d want ~4000", h, got)
		}
	}
	// No underestimation anywhere.
	for id, c := range truth {
		if got := tk.Estimate(k(id)); got < c {
			t.Errorf("flow %d underestimated: %d < %d", id, got, c)
		}
	}
	// Cardinality in the right ballpark.
	card := tk.Cardinality()
	n := float64(len(truth))
	if math.Abs(card-n)/n > 0.1 {
		t.Errorf("cardinality %f want ~%f", card, n)
	}
}

func TestTopKErrors(t *testing.T) {
	if _, err := NewTopK(TopKConfig{Config: Config{MemoryBytes: 1000}, TopKEntries: 8192}); err == nil {
		t.Error("expected error when filter exceeds budget")
	}
}

func TestTopKDefaultArity(t *testing.T) {
	tk, err := NewTopK(TopKConfig{Config: Config{MemoryBytes: 1 << 18}})
	if err != nil {
		t.Fatal(err)
	}
	if got := tk.Sketch().Config().K; got != 16 {
		t.Errorf("FCM+TopK default arity %d, want 16 (§7.4)", got)
	}
	if tk.FilterMemoryBytes()+tk.Sketch().MemoryBytes() > 1<<18 {
		t.Error("combined memory exceeds budget")
	}
	if tk.Filter() == nil {
		t.Error("Filter() accessor nil")
	}
}

func TestTopKFlowSizeDistribution(t *testing.T) {
	tk, err := NewTopK(TopKConfig{Config: Config{MemoryBytes: 1 << 18}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	truth := make([]float64, 4001)
	for f := uint64(0); f < 5000; f++ {
		size := 1 + rng.Intn(4)
		if f%100 == 0 {
			size = 1000 + rng.Intn(3000)
		}
		tk.Update(k(f), uint64(size))
		truth[size]++
	}
	dist, err := tk.FlowSizeDistribution(&EMOptions{Iterations: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if w := metrics.WMRE(truth, dist); w > 0.4 {
		t.Errorf("WMRE %f", w)
	}
}

func TestFrameworkWindows(t *testing.T) {
	fw, err := NewFramework(Config{LeafWidth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	// Window 1: flow 1 heavy, flow 2 light.
	for i := 0; i < 1000; i++ {
		fw.Update(k(1), 1)
	}
	for i := 0; i < 10; i++ {
		fw.Update(k(2), 1)
	}
	if fw.WindowPackets() != 1010 {
		t.Errorf("window packets %d", fw.WindowPackets())
	}
	fw.Rotate()
	if fw.WindowPackets() != 0 {
		t.Error("packet counter not reset on rotate")
	}
	// Window 2: flow 1 quiet, flow 2 bursts.
	for i := 0; i < 900; i++ {
		fw.Update(k(2), 1)
	}
	if got := fw.PreviousEstimate(k(1)); got != 1000 {
		t.Errorf("previous estimate %d", got)
	}
	if got := fw.Estimate(k(2)); got != 900 {
		t.Errorf("current estimate %d", got)
	}
	hc, err := fw.HeavyChanges([][]byte{k(1), k(2), k(3), k(2)}, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(hc) != 2 {
		t.Fatalf("heavy changes %v", hc)
	}
	for _, c := range hc {
		switch c.Key {
		case string(k(1)):
			if c.Delta() != -1000 {
				t.Errorf("flow 1 delta %d", c.Delta())
			}
		case string(k(2)):
			if c.Delta() != 890 {
				t.Errorf("flow 2 delta %d", c.Delta())
			}
		default:
			t.Errorf("unexpected change %+v", c)
		}
	}
	if _, err := fw.HeavyChanges(nil, 0); err == nil {
		t.Error("expected threshold error")
	}
}

func TestFrameworkAbsorb(t *testing.T) {
	cfg := Config{LeafWidth: 4096}
	fw, err := NewFramework(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		fw.Update(k(1), 1)
	}
	// A "remote switch" that saw the same flow plus another one.
	remote, err := NewSketch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		remote.Update(k(1), 1)
		remote.Update(k(2), 1)
	}
	if err := fw.Absorb(remote, 100); err != nil {
		t.Fatal(err)
	}
	if got := fw.Estimate(k(1)); got != 150 {
		t.Errorf("absorbed estimate for flow 1 = %d, want 150", got)
	}
	if got := fw.Estimate(k(2)); got != 50 {
		t.Errorf("absorbed estimate for flow 2 = %d, want 50", got)
	}
	if got := fw.WindowPackets(); got != 200 {
		t.Errorf("window packets %d, want 200", got)
	}
	// Absorbed traffic rotates out with the window like direct updates.
	fw.Rotate()
	if got := fw.PreviousEstimate(k(2)); got != 50 {
		t.Errorf("previous estimate after rotate = %d, want 50", got)
	}
	if got := fw.Estimate(k(2)); got != 0 {
		t.Errorf("current estimate after rotate = %d, want 0", got)
	}
	// Config mismatch must be rejected, not silently folded.
	other, err := NewSketch(Config{LeafWidth: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Absorb(other, 0); err == nil {
		t.Error("expected config-mismatch error from Absorb")
	}
}

func TestFrameworkEntropy(t *testing.T) {
	fw, err := NewFramework(Config{LeafWidth: 8192})
	if err != nil {
		t.Fatal(err)
	}
	// 256 equal flows of 16 packets: H = log2(256) = 8.
	for f := uint64(0); f < 256; f++ {
		fw.Update(k(f), 16)
	}
	h, err := fw.Entropy(&EMOptions{Iterations: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-8) > 0.2 {
		t.Errorf("entropy %f want ~8", h)
	}
}

func TestEntropyOf(t *testing.T) {
	if got := EntropyOf(nil); got != 0 {
		t.Errorf("empty entropy %f", got)
	}
	// 4 flows of size 1: H = 2 bits.
	if got := EntropyOf([]float64{0, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("uniform entropy %f want 2", got)
	}
}

func TestSketchMerge(t *testing.T) {
	cfg := Config{LeafWidth: 4096, Seed: 3}
	a, _ := NewSketch(cfg)
	b, _ := NewSketch(cfg)
	both, _ := NewSketch(cfg)
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 30000; i++ {
		key := k(uint64(rng.Intn(2000)))
		if i%2 == 0 {
			a.Update(key, 1)
		} else {
			b.Update(key, 1)
		}
		both.Update(key, 1)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 2000; id++ {
		if a.Estimate(k(id)) != both.Estimate(k(id)) {
			t.Fatalf("merged estimate differs for flow %d: %d vs %d",
				id, a.Estimate(k(id)), both.Estimate(k(id)))
		}
	}
	if math.Abs(a.Cardinality()-both.Cardinality()) > 1e-9 {
		t.Errorf("merged cardinality %f vs %f", a.Cardinality(), both.Cardinality())
	}
}

func TestSketchMergeConfigMismatch(t *testing.T) {
	a, _ := NewSketch(Config{LeafWidth: 4096, Seed: 3})
	for _, cfg := range []Config{
		{LeafWidth: 4096, Seed: 4},           // different seed = different hashes
		{LeafWidth: 8192, Seed: 3},           // different geometry
		{LeafWidth: 4096, Seed: 3, Trees: 3}, // different tree count
	} {
		b, err := NewSketch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Merge(b); err == nil {
			t.Errorf("expected mismatch error for %+v", cfg)
		}
	}
}

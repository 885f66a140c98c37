package fcm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Framework is the full FCM measurement framework of Fig. 1: an FCM-Sketch
// data plane plus the control-plane algorithms — flow size distribution
// (EM), entropy, and heavy-change detection across adjacent measurement
// windows.
//
// The data plane is a Sharded sketch, whose engine is the one rotation
// authority: Update goes straight to it, so it is safe for any number of
// concurrent writers, and Rotate is safe while updates are in flight — an
// update lands, and is counted, in exactly one window. Rotate keeps the
// closed window's exact merge as the previous window, so heavy changes can
// be detected by comparing count queries across the two (§4.4).
type Framework struct {
	cur  *Sharded
	prev atomic.Pointer[Sketch] // exact merge of the closed window

	// mu pairs Rotate's swap with HeavyChanges' candidate scan, so a scan
	// always compares two adjacent windows. Updates and queries skip it.
	mu sync.Mutex
}

// NewFramework builds a framework with a single-shard data plane — the
// right default for one writer goroutine. Use NewShardedFramework for
// multi-writer ingest.
func NewFramework(cfg Config) (*Framework, error) {
	return NewShardedFramework(cfg, 1)
}

// NewShardedFramework builds a framework whose current window is a Sharded
// sketch with the given shard count, so multiple goroutines can feed it
// concurrently (key-affinity via Update, or shard ownership via
// UpdateShard).
func NewShardedFramework(cfg Config, shards int) (*Framework, error) {
	cur, err := NewSharded(cfg, shards)
	if err != nil {
		return nil, err
	}
	prev, err := NewSketch(cur.Config())
	if err != nil {
		return nil, err
	}
	f := &Framework{cur: cur}
	f.prev.Store(prev)
	return f, nil
}

// Update records inc occurrences of key in the current window. Safe for
// concurrent use, including concurrently with Rotate.
func (f *Framework) Update(key []byte, inc uint64) { f.cur.Update(key, inc) }

// UpdateShard records inc occurrences of key on shard i of the current
// window — the ownership path for pipelines with one shard per writer.
func (f *Framework) UpdateShard(i int, key []byte, inc uint64) { f.cur.UpdateShard(i, key, inc) }

// Rotate closes the current window: its exact merge becomes the previous
// window and the cleared shards start the next one. Updates concurrent
// with Rotate land in exactly one of the two windows.
func (f *Framework) Rotate() {
	f.mu.Lock()
	closed, _ := f.cur.Rotate()
	f.prev.Store(closed)
	f.mu.Unlock()
}

// Config returns the framework's effective configuration (defaults
// applied), so callers can build merge-compatible sketches for Absorb.
func (f *Framework) Config() Config { return f.cur.Config() }

// Absorb folds a remote sketch into the current window — the aggregation
// step of network-wide monitoring: switch snapshots are collected, restored,
// and absorbed here, so the framework's queries answer over the union of
// the streams. The sketch must share the framework's configuration (the
// merge is exact, per §5). packets is how many packets sk represents and
// is added to the window packet count used by the entropy estimator; pass
// 0 when unknown. Safe for concurrent use, including concurrently with
// Update and Rotate.
func (f *Framework) Absorb(sk *Sketch, packets uint64) error { return f.cur.absorb(sk, packets) }

// Estimate returns the current window's count estimate for key.
func (f *Framework) Estimate(key []byte) uint64 { return f.cur.Estimate(key) }

// PreviousEstimate returns the previous window's count estimate for key.
func (f *Framework) PreviousEstimate(key []byte) uint64 { return f.prev.Load().Estimate(key) }

// Cardinality estimates the current window's distinct flows.
func (f *Framework) Cardinality() float64 { return f.cur.Cardinality() }

// WindowPackets returns the number of packets recorded in the current
// window, exact at any load (the engine counts them beside its registers).
func (f *Framework) WindowPackets() uint64 { return f.cur.eng.Packets() }

// Sketch returns an exact-merge snapshot of the current window's sketch
// that the caller owns.
func (f *Framework) Sketch() *Sketch { return f.cur.Snapshot() }

// FlowSizeDistribution estimates the current window's flow-size
// distribution with EM (§4.2).
func (f *Framework) FlowSizeDistribution(opt *EMOptions) ([]float64, error) {
	return f.cur.FlowSizeDistribution(opt)
}

// Entropy estimates the current window's flow entropy from the EM
// distribution: H = −Σ_k n_k·(k/m)·log2(k/m) (§4.4).
func (f *Framework) Entropy(opt *EMOptions) (float64, error) {
	dist, err := f.FlowSizeDistribution(opt)
	if err != nil {
		return 0, err
	}
	return EntropyOf(dist), nil
}

// EntropyOf computes flow entropy from a flow-size distribution, where
// dist[k] is the number of flows of size k.
func EntropyOf(dist []float64) float64 {
	m := 0.0
	for k := 1; k < len(dist); k++ {
		m += float64(k) * dist[k]
	}
	if m == 0 {
		return 0
	}
	h := 0.0
	for k := 1; k < len(dist); k++ {
		if dist[k] <= 0 {
			continue
		}
		p := float64(k) / m
		h -= dist[k] * p * math.Log2(p)
	}
	return h
}

// HeavyChange describes one detected heavy change (§4.4).
type HeavyChange struct {
	// Key is the flow key.
	Key string
	// Previous and Current are the two windows' count estimates.
	Previous, Current uint64
}

// Delta returns the signed change Current−Previous.
func (h HeavyChange) Delta() int64 { return int64(h.Current) - int64(h.Previous) }

// HeavyChanges compares candidate flows across the previous and current
// windows and returns those whose estimates changed by at least threshold.
// Per §4.4, a flow whose size changed by ≥ threshold must exceed the
// threshold in at least one window, so candidates are typically the union
// of both windows' heavy hitters.
func (f *Framework) HeavyChanges(candidates [][]byte, threshold uint64) ([]HeavyChange, error) {
	if threshold == 0 {
		return nil, fmt.Errorf("fcm: heavy-change threshold must be positive")
	}
	// One consistent snapshot per window for the whole candidate scan.
	f.mu.Lock()
	cur, prev := f.cur.current(), f.prev.Load()
	f.mu.Unlock()
	var out []HeavyChange
	seen := make(map[string]bool, len(candidates))
	for _, k := range candidates {
		ks := string(k)
		if seen[ks] {
			continue
		}
		seen[ks] = true
		p := prev.Estimate(k)
		c := cur.Estimate(k)
		d := int64(c) - int64(p)
		if d >= int64(threshold) || -d >= int64(threshold) {
			out = append(out, HeavyChange{Key: ks, Previous: p, Current: c})
		}
	}
	return out, nil
}

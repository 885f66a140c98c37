// Package fcm is the public API of the FCM framework — a Go implementation
// of "FCM-Sketch: Generic Network Measurements with Data Plane Support"
// (Song, Kannan, Low, Chan; CoNEXT 2020).
//
// The data-plane structure is FCM-Sketch: a k-ary tree of counter stages in
// which many small counters at the leaves overflow into progressively fewer
// and larger counters, with the counter's maximum value doubling as the
// overflow indicator. It answers per-flow counts, heavy-hitter checks and
// Linear-Counting cardinality at update speed and can replace Count-Min in
// any application that uses one.
//
// The control-plane side (Framework) converts a collected sketch into
// virtual counters and runs Expectation-Maximization to recover the flow
// size distribution, entropy, and heavy changes across windows.
//
// A quick tour:
//
//	sk, _ := fcm.NewSketch(fcm.Config{MemoryBytes: 1 << 20})
//	sk.Update(flowKey, 1)
//	size := sk.Estimate(flowKey)
//	n := sk.Cardinality()
//
//	fw, _ := fcm.NewFramework(fcm.Config{MemoryBytes: 1 << 20})
//	fw.Update(flowKey, 1)
//	dist, _ := fw.FlowSizeDistribution(nil)
//	h, _ := fw.Entropy(nil)
//
// For the highest accuracy on heavy-tailed traffic, combine FCM-Sketch
// with the Top-K filter of ElasticSketch (§6 of the paper):
//
//	tk, _ := fcm.NewTopK(fcm.TopKConfig{Config: fcm.Config{MemoryBytes: 1 << 20}})
//	tk.Update(flowKey, 1)
//	hh := tk.HeavyHitters(10000)
package fcm

import (
	"fmt"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/sketch"
)

// Config parameterizes an FCM-Sketch. The zero value of every field selects
// the paper's defaults (§7.2): two 8-ary trees of 8/16/32-bit stages.
type Config struct {
	// MemoryBytes is the total counter budget. Exactly one of MemoryBytes
	// and LeafWidth must be positive.
	MemoryBytes int
	// LeafWidth sets w1 (stage-1 nodes per tree) directly instead of
	// solving it from MemoryBytes.
	LeafWidth int
	// K is the tree arity (default 8; the paper recommends 8 for plain
	// FCM and 16 under a Top-K filter).
	K int
	// Trees is the number of independent trees (default 2).
	Trees int
	// Widths is the per-stage counter width in bits, leaves first
	// (default 8,16,32).
	Widths []int
	// Seed derives the hash functions; sketches with equal seeds and
	// geometry are mergeable snapshots of each other.
	Seed uint32
	// PerTreeHash forces one independent hash evaluation per tree instead
	// of the default one-pass mode, which derives every tree's index from
	// a single two-lane hash of the key. The modes place counters
	// differently, so sketches built in different modes do not merge.
	PerTreeHash bool
}

// withDefaults fills zero fields with the paper's defaults. Widths is
// defensively copied so a caller mutating its slice after NewSketch cannot
// corrupt the sketch geometry.
func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 8
	}
	if c.Trees == 0 {
		c.Trees = 2
	}
	if len(c.Widths) == 0 {
		c.Widths = core.DefaultWidths()
	} else {
		c.Widths = append([]int(nil), c.Widths...)
	}
	return c
}

// coreConfig converts to the internal configuration.
func (c Config) coreConfig() core.Config {
	return core.Config{
		K:           c.K,
		Trees:       c.Trees,
		Widths:      c.Widths,
		MemoryBytes: c.MemoryBytes,
		LeafWidth:   c.LeafWidth,
		Hash:        hashing.NewBobFamily(0xfc3141 ^ c.Seed),
		PerTreeHash: c.PerTreeHash,
	}
}

// Sketch is an FCM-Sketch: the data-plane structure of the paper. It is
// not safe for concurrent use; multi-writer pipelines should use Sharded,
// whose per-shard ingest plus exact merge is bit-identical to feeding one
// Sketch serially.
type Sketch struct {
	cfg Config
	s   *core.Sketch
}

// NewSketch builds an FCM-Sketch.
func NewSketch(cfg Config) (*Sketch, error) {
	cfg = cfg.withDefaults()
	s, err := core.New(cfg.coreConfig())
	if err != nil {
		return nil, fmt.Errorf("fcm: %w", err)
	}
	return &Sketch{cfg: cfg, s: s}, nil
}

// Update records inc occurrences of key (1 for packet counting, the byte
// count for volume counting).
func (s *Sketch) Update(key []byte, inc uint64) { s.s.Update(key, inc) }

// UpdateBatch records inc occurrences of every key in keys, equivalent to
// calling Update once per key but with per-call overheads amortized across
// the batch. Key slices are not retained; callers may reuse the buffers.
func (s *Sketch) UpdateBatch(keys [][]byte, inc uint64) { s.s.UpdateBatch(keys, inc) }

// Estimate returns the count-query estimate for key. The estimate is
// one-sided: it never underestimates (Theorem 5.1 bounds the excess).
func (s *Sketch) Estimate(key []byte) uint64 { return s.s.Estimate(key) }

// Cardinality estimates the number of distinct keys seen, using Linear
// Counting over the stage-1 arrays (§3.3).
func (s *Sketch) Cardinality() float64 { return s.s.Cardinality() }

// IsHeavyHitter reports whether key's estimate has reached threshold — the
// data-plane heavy-hitter check of §3.3.
func (s *Sketch) IsHeavyHitter(key []byte, threshold uint64) bool {
	return s.s.Estimate(key) >= threshold
}

// HeavyHitters scans candidate keys and returns those whose estimates reach
// threshold. Like Count-Min, a plain FCM-Sketch cannot enumerate keys; the
// candidates come from the application (or use TopKSketch, which can).
func (s *Sketch) HeavyHitters(candidates [][]byte, threshold uint64) map[string]uint64 {
	hh := make(map[string]uint64)
	for _, k := range candidates {
		if est := s.s.Estimate(k); est >= threshold {
			hh[string(k)] = est
		}
	}
	return hh
}

// MemoryBytes returns the counter storage footprint as the paper accounts
// it: the configured bit cost of every stage.
func (s *Sketch) MemoryBytes() int { return s.s.MemoryBytes() }

// ResidentBytes returns the bytes of counter storage actually allocated:
// typed lanes cost 1, 2 or 4 bytes per node depending on stage width.
func (s *Sketch) ResidentBytes() int { return s.s.ResidentBytes() }

// Reset clears all counters for the next measurement window.
func (s *Sketch) Reset() { s.s.Reset() }

// Config returns the effective configuration (with defaults applied).
func (s *Sketch) Config() Config { return s.cfg }

// Core exposes the underlying sketch for the control-plane collector and
// the PISA compiler. Most applications never need it.
func (s *Sketch) Core() *core.Sketch { return s.s }

// Merge folds another sketch into s. The merge is exact: the result is
// bit-identical to a sketch that ingested both streams, which makes
// per-switch or per-shard collection composable in the control plane.
// Both sketches must have been built with identical configurations
// (including Seed, so the hash functions match).
func (s *Sketch) Merge(o *Sketch) error {
	if !configsEqual(s.cfg, o.Config()) {
		return fmt.Errorf("fcm: merge config mismatch: %+v vs %+v", s.cfg, o.Config())
	}
	return s.s.Merge(o.s)
}

// MergeFrom implements the sketch.Mergeable contract: it folds other —
// which must be another *Sketch with an identical configuration — into s.
// See Merge for the exactness guarantee.
func (s *Sketch) MergeFrom(other sketch.Estimator) error {
	o, ok := other.(*Sketch)
	if !ok {
		return fmt.Errorf("fcm: cannot merge %T into *fcm.Sketch", other)
	}
	return s.Merge(o)
}

// Snapshot returns a consistent deep copy of the sketch that the caller
// owns: counters are copied, hash functions shared. The snapshot answers
// every query (including control-plane EM) independently of the original.
func (s *Sketch) Snapshot() *Sketch {
	return &Sketch{cfg: s.cfg, s: s.s.Clone()}
}

// configsEqual compares configurations field by field (Config contains a
// slice, so == is not available).
func configsEqual(a, b Config) bool {
	if a.MemoryBytes != b.MemoryBytes || a.LeafWidth != b.LeafWidth ||
		a.K != b.K || a.Trees != b.Trees || a.Seed != b.Seed ||
		a.PerTreeHash != b.PerTreeHash || len(a.Widths) != len(b.Widths) {
		return false
	}
	for i := range a.Widths {
		if a.Widths[i] != b.Widths[i] {
			return false
		}
	}
	return true
}

// EMOptions tunes the control-plane EM estimator. The zero value selects
// the paper's configuration.
type EMOptions struct {
	// Iterations is the number of EM rounds (default 8; the paper's
	// error stabilizes within 5).
	Iterations int
	// Workers is the parallelism: 0 = all cores (the paper's FCM(m)),
	// 1 = single-threaded (FCM(s)).
	Workers int
	// OnIteration observes the intermediate distribution estimates.
	OnIteration func(iter int, dist []float64)
}

// FlowSizeDistribution converts the sketch to virtual counters (§4.1) and
// runs EM (§4.2) to estimate the flow-size distribution. dist[j] is the
// estimated number of flows with exactly j packets.
func (s *Sketch) FlowSizeDistribution(opt *EMOptions) ([]float64, error) {
	var o EMOptions
	if opt != nil {
		o = *opt
	}
	res, err := em.Run(em.Config{
		W1:          s.s.LeafWidth(),
		Theta1:      s.s.StageMax(0),
		Iterations:  o.Iterations,
		Workers:     o.Workers,
		OnIteration: o.OnIteration,
	}, s.s.VirtualCounters())
	if err != nil {
		return nil, fmt.Errorf("fcm: %w", err)
	}
	return res.Dist, nil
}

package fcm

import (
	"fmt"
	"sync"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/sketch"
)

// Sharded is a multi-writer FCM-Sketch: N identically-configured shards
// fed concurrently, merged exactly (§5 of the paper) into read snapshots
// on demand. Because FCM's merge is exact, a snapshot is register-bit-
// identical to a single Sketch that ingested the whole stream serially —
// sharding changes throughput, never accuracy.
//
// Writers choose between three modes:
//
//   - Update routes each key to a fixed shard by an independent hash
//     (key affinity), so any goroutine may call it at any time.
//   - UpdateBatch places a whole batch on the first shard whose lock is
//     free, under one lock acquisition; any goroutine may call it, and
//     concurrent batch writers settle on different shards.
//   - UpdateShard lets each writer goroutine own one shard outright; the
//     per-shard lock is then uncontended and ingest scales with writers.
//
// Readers call Snapshot (or any query method, which snapshots internally)
// and never stall ingest: a shard is locked only while its registers are
// copied. Snapshots are cached and reused until the next update.
type Sharded struct {
	cfg Config
	eng *engine.Engine

	// snapMu guards the cached merged snapshot; cachedGen is the engine
	// generation the cache was built at.
	snapMu    sync.Mutex
	cached    *Sketch
	cachedGen uint64
	hasCache  bool
}

// NewSharded builds a sharded sketch with the given number of shards
// (1..1024; 0 selects 1). Every shard uses cfg's geometry and seed, so
// shards — and snapshots — are mergeable with any single Sketch built
// from the same cfg.
func NewSharded(cfg Config, shards int) (*Sharded, error) {
	cfg = cfg.withDefaults()
	eng, err := engine.New(engine.Config{
		Shards: shards,
		Build: func() (*core.Sketch, error) {
			return core.New(cfg.coreConfig())
		},
	})
	if err != nil {
		return nil, fmt.Errorf("fcm: %w", err)
	}
	return &Sharded{cfg: cfg, eng: eng}, nil
}

// Update records inc occurrences of key on its key-affinity shard. Safe
// for any number of concurrent callers.
func (s *Sharded) Update(key []byte, inc uint64) { s.eng.Update(key, inc) }

// UpdateShard records inc occurrences of key on shard i — the ownership
// path for pipelines that dedicate one shard per writer goroutine.
// i must be in [0, Shards()).
func (s *Sharded) UpdateShard(i int, key []byte, inc uint64) {
	s.eng.UpdateShard(i, key, inc)
}

// UpdateBatch records inc occurrences of every key in keys on the first
// free shard, probing from a round-robin start, under one lock
// acquisition (engine.Engine.UpdateBatch). Safe for any number of
// concurrent callers; the exact merge keeps snapshots bit-identical to
// serial ingest whichever shard a batch lands on.
func (s *Sharded) UpdateBatch(keys [][]byte, inc uint64) { s.eng.UpdateBatch(keys, inc) }

// UpdateShardBatch records inc occurrences of every key in keys on shard i
// under one lock acquisition — the batched ownership path.
func (s *Sharded) UpdateShardBatch(i int, keys [][]byte, inc uint64) {
	s.eng.UpdateShardBatch(i, keys, inc)
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.eng.NumShards() }

// ShardOf returns the key-affinity shard index for key.
func (s *Sharded) ShardOf(key []byte) int { return s.eng.ShardOf(key) }

// Snapshot returns the exact merge of all shards as a Sketch the caller
// owns. Consecutive calls with no intervening updates return the same
// cached snapshot, so query-heavy phases (EM, candidate scans) cost one
// merge, not one per query.
func (s *Sharded) Snapshot() *Sketch {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	if s.hasCache && s.eng.Generation() == s.cachedGen {
		return s.cached
	}
	merged, gen := s.eng.Snapshot()
	s.cached = &Sketch{cfg: s.cfg, s: merged}
	s.cachedGen = gen
	s.hasCache = true
	return s.cached
}

// SnapshotEstimator implements the sketch.Snapshotter contract.
func (s *Sharded) SnapshotEstimator() sketch.Estimator { return s.Snapshot() }

// Rotate closes the measurement window: every shard is snapshotted and
// cleared, and the exact merge of the closed window is returned. Updates
// racing with Rotate land in exactly one of the two windows.
func (s *Sharded) Rotate() *Sketch {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	merged := s.eng.Rotate()
	s.hasCache = false
	return &Sketch{cfg: s.cfg, s: merged}
}

// Estimate answers the count query on the current merged snapshot. For
// many queries in a row, take one Snapshot and query it directly.
func (s *Sharded) Estimate(key []byte) uint64 { return s.Snapshot().Estimate(key) }

// Cardinality estimates distinct keys over the merged snapshot.
func (s *Sharded) Cardinality() float64 { return s.Snapshot().Cardinality() }

// FlowSizeDistribution runs the control-plane EM estimator (§4.2) on the
// merged snapshot.
func (s *Sharded) FlowSizeDistribution(opt *EMOptions) ([]float64, error) {
	return s.Snapshot().FlowSizeDistribution(opt)
}

// MemoryBytes returns the combined counter footprint of all shards (each
// shard replicates the configured geometry).
func (s *Sharded) MemoryBytes() int { return s.eng.MemoryBytes() }

// ResidentBytes returns the combined bytes of counter storage actually
// allocated across all shards (the typed-lane footprint).
func (s *Sharded) ResidentBytes() int { return s.eng.ResidentBytes() }

// Reset clears every shard for the next measurement window.
func (s *Sharded) Reset() {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.eng.Reset()
	s.hasCache = false
}

// Config returns the effective configuration (defaults applied).
func (s *Sharded) Config() Config { return s.cfg }

// Engine exposes the underlying sharded engine, e.g. to serve it with
// internal/collect.NewServer (the engine satisfies collect.Source). Most
// applications never need it.
func (s *Sharded) Engine() *engine.Engine { return s.eng }

// MergeFrom implements the sketch.Mergeable contract: it folds another
// *Sharded (or a plain *Sketch) with the same configuration into shard 0.
// The merge is exact, like Sketch.Merge.
func (s *Sharded) MergeFrom(other sketch.Estimator) error {
	var osk *Sketch
	switch o := other.(type) {
	case *Sharded:
		if !configsEqual(s.cfg, o.cfg) {
			return fmt.Errorf("fcm: merge config mismatch: %+v vs %+v", s.cfg, o.cfg)
		}
		osk = o.Snapshot()
	case *Sketch:
		if !configsEqual(s.cfg, o.Config()) {
			return fmt.Errorf("fcm: merge config mismatch: %+v vs %+v", s.cfg, o.Config())
		}
		osk = o
	default:
		return fmt.Errorf("fcm: cannot merge %T into *fcm.Sharded", other)
	}
	// Fold through the ownership path of shard 0: UpdateShard and Merge
	// commute with the per-shard lock, so concurrent writers stay safe.
	return s.mergeIntoShard0(osk)
}

// mergeIntoShard0 merges o's registers into shard 0 under its lock.
func (s *Sharded) mergeIntoShard0(o *Sketch) error {
	return s.eng.MergeShard(0, o.s)
}

// Package engine provides the sharded concurrent ingest engine: N
// FCM-Sketch shards built from one core.Config, fed by multiple writers, with
// exact merge (internal/core's Merge, §5 of the paper) into a consistent
// read snapshot on demand. Because the merge is exact, the merged snapshot
// is bit-identical to a single sketch that ingested the whole stream
// serially — sharding costs nothing in accuracy, only memory for the
// per-shard replicas.
//
// Writers pick shards three ways:
//
//   - Key affinity (Update): the shard is chosen by an independent hash of
//     the key, so one flow's packets always serialize on the same shard
//     lock. This is the drop-in mode for arbitrary goroutine pools.
//   - First free shard (UpdateBatch): a whole batch lands on the first
//     shard whose lock is free, probing from a round-robin start. Any
//     goroutine may call it; concurrent writers drift onto disjoint shards,
//     and one writer still spreads its batches over every shard. The exact
//     merge makes where a key lands irrelevant to every snapshot.
//   - Shard ownership (UpdateShard, UpdateShardBatch): the caller assigns
//     one shard per writer goroutine. The per-shard mutex is then
//     uncontended and the engine scales with writer count.
//
// Readers never stall ingest: Snapshot takes its copy targets before it
// locks anything, copies each shard's registers under that shard's lock
// only for the duration of the copy, then merges the copies outside all
// locks. A shard is blocked for one memcpy, not for an allocation, the
// encode or the network write of a collection.
//
// The engine is also the window's only rotation authority. Each shard
// counts the packets it recorded under the same lock as its registers, so
// Rotate closes a window together with its exact packet count, and a live
// snapshot reports the packets its registers hold — exact past root
// saturation, where the sketch's own totals are only a floor.
//
// Like a switch resetting its register arrays at a window boundary, the
// engine reuses dead sketches instead of allocating new ones: Rotate and
// Snapshot draw their fresh shards and copy targets from a pool of spares
// of the engine's geometry, and put the per-shard sketches they merged
// away back into it. Recycle lets an owner (the window ring) hand back
// sketches it got from the engine once nothing references them.
//
// The engine builds every sketch itself, shards and spares alike, from the
// one core.Config it was given, so all of them merge. SketchConfig is the
// public sketch configuration (fcm.Config aliases it); WithDefaults and
// CoreConfig turn it into that core.Config for the root package and the
// window ring alike.
package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/telemetry"
)

// Config parameterizes an Engine.
type Config struct {
	// Shards is the number of per-writer sketch replicas (default 1).
	Shards int
	// Sketch configures every shard, and every sketch Rotate or Snapshot
	// builds when the engine has no spare to reuse.
	Sketch core.Config
	// ShardHash picks the shard for key-affinity updates; nil selects a
	// BobHash decorrelated from the sketch's own hash functions.
	ShardHash hashing.Hasher
}

// shard pads each slot so neighbouring shard locks do not false-share a
// cache line under concurrent writers.
type shard struct {
	mu      sync.Mutex
	sk      *core.Sketch
	gen     atomic.Uint64 // bumped on every update; snapshot cache validity
	packets uint64        // packets recorded in this window; guarded by mu
	_       [64 - 8]byte
}

// Engine is a sharded multi-writer FCM-Sketch.
type Engine struct {
	shards []shard
	sketch core.Config
	hasher hashing.Hasher
	// next is the round-robin start of UpdateBatch's shard probe.
	next atomic.Uint64
	// spares holds dead sketches of the engine's geometry, registers
	// undefined and telemetry detached. A sync.Pool, so spares never
	// outlive two garbage collections: an idle engine retains nothing.
	spares sync.Pool
	// builds counts the sketches built after New because no spare was
	// pooled: zero per window once every sketch is handed back.
	builds atomic.Uint64

	// Latency histograms, nil until Instrument; read-plane only, so a nil
	// check per Snapshot/Rotate is the whole uninstrumented cost.
	snapSeconds   *telemetry.Histogram
	mergeSeconds  *telemetry.Histogram
	rotateSeconds *telemetry.Histogram
}

// New builds an engine with cfg.Shards replicas of cfg.Sketch.
func New(cfg Config) (*Engine, error) {
	n := cfg.Shards
	if n == 0 {
		n = 1
	}
	if n < 1 || n > 1024 {
		return nil, fmt.Errorf("engine: shard count %d out of range [1,1024]", n)
	}
	h := cfg.ShardHash
	if h == nil {
		// A seed unrelated to the sketch families (0xfc3141-derived) so
		// shard choice is independent of counter placement.
		h = hashing.NewBob(0x5eedca7e)
	}
	e := &Engine{shards: make([]shard, n), sketch: cfg.Sketch, hasher: h}
	for i := range e.shards {
		sk, err := core.New(cfg.Sketch)
		if err != nil {
			return nil, fmt.Errorf("engine: building shard %d: %w", i, err)
		}
		e.shards[i].sk = sk
	}
	return e, nil
}

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// ShardOf returns the key-affinity shard index for key.
func (e *Engine) ShardOf(key []byte) int {
	if len(e.shards) == 1 {
		return 0
	}
	return hashing.Reduce(e.hasher.Hash(key), len(e.shards))
}

// Update records inc occurrences of key on its key-affinity shard. Safe
// for any number of concurrent callers.
func (e *Engine) Update(key []byte, inc uint64) {
	e.UpdateShard(e.ShardOf(key), key, inc)
}

// UpdateShard records inc occurrences of key on shard i — the
// shard-ownership path for writer goroutines that each own one shard. The
// per-shard lock is still taken (so snapshots stay consistent) but is
// uncontended when each goroutine sticks to its own shard.
func (e *Engine) UpdateShard(i int, key []byte, inc uint64) {
	sh := &e.shards[i]
	sh.mu.Lock()
	sh.sk.Update(key, inc)
	sh.gen.Add(1)
	sh.packets += inc
	sh.mu.Unlock()
}

// UpdateShardBatch records inc occurrences of every key in keys on shard
// i under ONE lock acquisition. For shard-owning writers this amortizes
// the mutex and the sketch's per-call setup across the whole batch, which
// is the engine-level half of the zero-alloc batched replay path. The
// shard generation advances by len(keys) so Generation still counts
// updates, not calls.
func (e *Engine) UpdateShardBatch(i int, keys [][]byte, inc uint64) {
	if len(keys) == 0 {
		return
	}
	sh := &e.shards[i]
	sh.mu.Lock()
	sh.updateBatch(keys, inc)
	sh.mu.Unlock()
}

// UpdateBatch records inc occurrences of every key in keys under ONE lock
// acquisition, on the first shard whose lock is free. The probe starts at
// a round-robin shard and tries each lock once; if every shard is busy it
// blocks on the starting one. Keys of one batch thus share a shard
// regardless of their hash — harmless, since the exact merge gives the
// same snapshot for any split of the stream — and concurrent writers
// settle on different shards instead of bouncing every shard's lock
// between cores. Safe for any number of concurrent callers.
func (e *Engine) UpdateBatch(keys [][]byte, inc uint64) {
	if len(keys) == 0 {
		return
	}
	n := len(e.shards)
	start := int(e.next.Add(1) % uint64(n))
	for j := 0; j < n; j++ {
		sh := &e.shards[(start+j)%n]
		if sh.mu.TryLock() {
			sh.updateBatch(keys, inc)
			sh.mu.Unlock()
			return
		}
	}
	sh := &e.shards[start]
	sh.mu.Lock()
	sh.updateBatch(keys, inc)
	sh.mu.Unlock()
}

// updateBatch applies a batch to the shard's sketch and advances its
// generation by len(keys), so Generation counts updates, not calls. The
// caller holds sh.mu.
func (sh *shard) updateBatch(keys [][]byte, inc uint64) {
	sh.sk.UpdateBatch(keys, inc)
	sh.gen.Add(uint64(len(keys)))
	sh.packets += inc * uint64(len(keys))
}

// MergeShard folds o — which must share the shards' geometry and hash
// functions — into shard i under that shard's lock, and adds packets (the
// number of packets o represents; 0 when unknown) to the window's count.
// The caller keeps ownership of o. Because FCM's merge is exact, this is
// equivalent to replaying o's whole stream into shard i.
func (e *Engine) MergeShard(i int, o *core.Sketch, packets uint64) error {
	sh := &e.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.sk.Merge(o); err != nil {
		return err
	}
	sh.gen.Add(1)
	sh.packets += packets
	return nil
}

// Batcher accumulates keys per shard and flushes each shard's pending
// batch with a single UpdateShardBatch call once it reaches the batch
// size. Key bytes are copied into a per-shard arena on Add — the caller
// may reuse its buffer immediately (the pcap reader does) — and both the
// arena and the key-view slice are recycled across flushes, so a warmed-up
// Batcher adds and flushes without allocating. A Batcher is single-writer:
// use one per ingesting goroutine.
type Batcher struct {
	e     *Engine
	inc   uint64
	batch int
	keys  [][][]byte // per-shard views into arena, reused across flushes
	arena [][]byte   // per-shard copied key bytes, reused across flushes
}

// NewBatcher returns a Batcher that applies increment inc per key and
// flushes a shard after batch keys (default 256).
func (e *Engine) NewBatcher(batch int, inc uint64) *Batcher {
	if batch <= 0 {
		batch = 256
	}
	b := &Batcher{
		e:     e,
		inc:   inc,
		batch: batch,
		keys:  make([][][]byte, len(e.shards)),
		arena: make([][]byte, len(e.shards)),
	}
	for i := range b.keys {
		b.keys[i] = make([][]byte, 0, batch)
	}
	return b
}

// Add buffers key for its key-affinity shard, flushing that shard's batch
// if it is full.
func (b *Batcher) Add(key []byte) {
	b.AddShard(b.e.ShardOf(key), key)
}

// AddShard buffers key for shard i — the shard-ownership analogue of Add.
func (b *Batcher) AddShard(i int, key []byte) {
	a := b.arena[i]
	start := len(a)
	a = append(a, key...)
	b.arena[i] = a
	b.keys[i] = append(b.keys[i], a[start:len(a):len(a)])
	if len(b.keys[i]) >= b.batch {
		b.flushShard(i)
	}
}

func (b *Batcher) flushShard(i int) {
	if len(b.keys[i]) == 0 {
		return
	}
	b.e.UpdateShardBatch(i, b.keys[i], b.inc)
	b.keys[i] = b.keys[i][:0]
	b.arena[i] = b.arena[i][:0]
}

// Flush drains every shard's pending batch. Call it at end of stream —
// keys since the last full batch are not in the engine until flushed.
func (b *Batcher) Flush() {
	for i := range b.keys {
		b.flushShard(i)
	}
}

// Generation returns a counter that increases with every update on any
// shard. Two equal readings with no snapshot in between mean the engine's
// contents did not change, which lets callers cache merged snapshots.
func (e *Engine) Generation() uint64 {
	var g uint64
	for i := range e.shards {
		g += e.shards[i].gen.Load()
	}
	return g
}

// Packets returns the number of packets recorded in the current window:
// every update's increment plus the packets passed to MergeShard since
// the last Rotate or Reset.
func (e *Engine) Packets() uint64 {
	var n uint64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += sh.packets
		sh.mu.Unlock()
	}
	return n
}

// Snapshot returns the exact merge of every shard as a sketch the caller
// owns, plus the engine generation the snapshot corresponds to (a lower
// bound: updates racing with the copy may or may not be included, exactly
// as with any streaming snapshot). Each shard is locked only while its
// registers are copied; the merge runs outside all locks.
func (e *Engine) Snapshot() (*core.Sketch, uint64) {
	sk, gen, _ := e.snapshot()
	return sk, gen
}

// SnapshotPackets is Snapshot with the live window's packet count in
// place of the generation. Each shard's count is read under the same lock
// as its register copy, so the count is exactly the packets the returned
// registers hold.
func (e *Engine) SnapshotPackets() (*core.Sketch, uint64) {
	sk, _, packets := e.snapshot()
	return sk, packets
}

func (e *Engine) snapshot() (sk *core.Sketch, gen, packets uint64) {
	if e.snapSeconds != nil {
		defer e.snapSeconds.ObserveSince(time.Now())
	}
	// Take every copy target before locking anything: a writer waits for
	// a register copy, never for an allocation.
	copies := make([]*core.Sketch, len(e.shards))
	for i := range copies {
		copies[i] = e.spareOrBuild()
	}
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		err := copies[i].CopyFrom(sh.sk)
		gen += sh.gen.Load()
		packets += sh.packets
		sh.mu.Unlock()
		if err != nil {
			panic(fmt.Sprintf("engine: shard %d does not match the engine's geometry: %v", i, err))
		}
	}
	return e.mergeClones(copies, (*core.Sketch).Merge), gen, packets
}

// mergeClones folds per-shard sketches the caller owns — Snapshot's
// register copies, or the shard sketches Rotate swapped out — into the
// first of them with merge outside all shard locks, timing the exact-merge
// phase when instrumented. The others are spent and go back to the spares.
func (e *Engine) mergeClones(clones []*core.Sketch, merge func(dst, src *core.Sketch) error) *core.Sketch {
	if e.mergeSeconds != nil {
		defer e.mergeSeconds.ObserveSince(time.Now())
	}
	merged := clones[0]
	for _, c := range clones[1:] {
		if err := merge(merged, c); err != nil {
			// Every sketch is built from one core.Config, so a
			// mismatch is a bug, not a runtime condition.
			panic(fmt.Sprintf("engine: shards not mergeable: %v", err))
		}
		e.Recycle(c)
	}
	return merged
}

// Spare returns a dead sketch of the engine's geometry for the caller to
// own, or nil when none is pooled. Its registers hold arbitrary counts:
// overwrite them (CopyFrom, Reset) before use.
func (e *Engine) Spare() *core.Sketch {
	if v := e.spares.Get(); v != nil {
		return v.(*core.Sketch)
	}
	return nil
}

// spareOrBuild returns a spare, or a freshly built sketch when the pool is
// empty. Either way the registers are the caller's to overwrite.
func (e *Engine) spareOrBuild() *core.Sketch {
	if sk := e.Spare(); sk != nil {
		return sk
	}
	return e.mustBuild()
}

// mustBuild returns a fresh empty sketch of the engine's configuration,
// counting the build.
func (e *Engine) mustBuild() *core.Sketch {
	sk, err := core.New(e.sketch)
	if err != nil {
		// The same configuration built every shard in New.
		panic(fmt.Sprintf("engine: building a spare shard sketch: %v", err))
	}
	e.builds.Add(1)
	return sk
}

// Builds returns how many sketches the engine has built since New because
// no spare was pooled when Rotate or Snapshot needed one. A steady
// rotation whose readers hand back every sketch they take builds none.
func (e *Engine) Builds() uint64 { return e.builds.Load() }

// Recycle hands sk back for reuse by a later Rotate or Snapshot. sk must
// have come from this engine — a Spare, or a sketch Rotate or Snapshot
// returned — and nothing may read or write it afterwards: the engine will
// overwrite its registers. Recycling is optional; a sketch never handed
// back is simply garbage collected.
func (e *Engine) Recycle(sk *core.Sketch) { e.spares.Put(sk) }

// Compatible reports why o cannot merge with the engine's shards — a
// different geometry, counter encoding, hash mode or hash seed — or nil
// when it can.
func (e *Engine) Compatible(o *core.Sketch) error {
	sh := &e.shards[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sk.Compatible(o)
}

// Rotate closes the current window and returns the exact merge of its
// shards and the packets it recorded; the caller owns the result. It
// readies one empty sketch per shard outside the locks — a spare, cleared,
// or a freshly built one when none is pooled — then swaps each in under its
// shard's lock: the closed window is the shards' own sketches, so a shard
// is blocked for a pointer swap, not a register copy and clear. The
// shard's telemetry moves to the new sketch and is detached from the
// closed one. The closed shards merged into the first go back to the
// spares. Updates concurrent with Rotate land in either the closed or the
// new window (never both, never neither), and so do their packets: each
// shard's count is read and zeroed under the lock that swaps its sketch.
//
// Rotate's clears and merge are register passes no answer waits behind,
// so they split across cores by root ranges (core's ResetSplit and
// MergeSplit); Snapshot's merge stays on its caller's goroutine.
func (e *Engine) Rotate() (*core.Sketch, uint64) {
	if e.rotateSeconds != nil {
		defer e.rotateSeconds.ObserveSince(time.Now())
	}
	closed := make([]*core.Sketch, 0, len(e.shards))
	for len(closed) < len(e.shards) {
		sk := e.Spare()
		if sk == nil {
			break
		}
		closed = append(closed, sk)
	}
	// The spares are cleared in one split pass. A built sketch is already
	// empty; clearing it would only fault its fresh pages in early.
	core.ResetSplit(closed...)
	for len(closed) < len(e.shards) {
		closed = append(closed, e.mustBuild())
	}
	var packets uint64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		fresh := closed[i]
		fresh.SetStats(sh.sk.Stats())
		closed[i], sh.sk = sh.sk, fresh
		packets += sh.packets
		sh.gen.Add(1)
		sh.packets = 0
		sh.mu.Unlock()
		closed[i].SetStats(nil)
	}
	return e.mergeClones(closed, (*core.Sketch).MergeSplit), packets
}

// Reset clears every shard and its packet count.
func (e *Engine) Reset() {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		sh.sk.Reset()
		sh.gen.Add(1)
		sh.packets = 0
		sh.mu.Unlock()
	}
}

// MemoryBytes returns the combined footprint of all shard replicas.
func (e *Engine) MemoryBytes() int {
	total := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		total += sh.sk.MemoryBytes()
		sh.mu.Unlock()
	}
	return total
}

// ResidentBytes returns the combined bytes of counter storage actually
// allocated by all shard replicas (the typed-lane footprint, as opposed to
// MemoryBytes' configured bit cost).
func (e *Engine) ResidentBytes() int {
	total := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		total += sh.sk.ResidentBytes()
		sh.mu.Unlock()
	}
	return total
}

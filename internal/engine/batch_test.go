package engine

import (
	"math/rand"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
)

// TestUpdateShardBatchEquivalence: a batched ingest must leave registers
// bit-identical to the same stream fed through UpdateShard one key at a
// time.
func TestUpdateShardBatchEquivalence(t *testing.T) {
	for gi, geom := range geometries {
		rng := rand.New(rand.NewSource(int64(gi)))
		serial, err := New(Config{Shards: 2, Build: build(geom, 5)})
		if err != nil {
			t.Fatal(err)
		}
		batched, err := New(Config{Shards: 2, Build: build(geom, 5)})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 40; round++ {
			n := 1 + rng.Intn(64)
			keys := make([][]byte, n)
			for i := range keys {
				keys[i] = key(uint64(rng.Intn(300)))
			}
			inc := uint64(1 + rng.Intn(5))
			sh := rng.Intn(2)
			for _, k := range keys {
				serial.UpdateShard(sh, k, inc)
			}
			batched.UpdateShardBatch(sh, keys, inc)
		}
		a, _ := serial.Snapshot()
		b, _ := batched.Snapshot()
		registersEqual(t, a, b)
		if serial.Generation() != batched.Generation() {
			t.Errorf("generation %d != %d: batch must advance by len(keys)",
				serial.Generation(), batched.Generation())
		}
	}
}

// TestBatcherEquivalence: routing a stream through a Batcher (key-affinity
// Add) must match unbatched key-affinity Update exactly, including keys
// held back until the final Flush.
func TestBatcherEquivalence(t *testing.T) {
	geom := geometries[0]
	rng := rand.New(rand.NewSource(42))
	plain, err := New(Config{Shards: 4, Build: build(geom, 3)})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Shards: 4, Build: build(geom, 3)})
	if err != nil {
		t.Fatal(err)
	}
	b := eng.NewBatcher(32, 1)
	const n = 10_007 // not a multiple of the batch size: Flush must drain the tail
	for i := 0; i < n; i++ {
		k := key(uint64(rng.Intn(500)))
		plain.Update(k, 1)
		b.Add(k)
	}
	b.Flush()
	pa, _ := plain.Snapshot()
	ba, _ := eng.Snapshot()
	registersEqual(t, pa, ba)
	if got := eng.Generation(); got != n {
		t.Errorf("generation %d after flush, want %d", got, n)
	}
}

// TestBatcherCopiesKeys: the Batcher must copy key bytes on Add, so a
// caller reusing one buffer per packet (the pcap reader) still counts
// distinct keys.
func TestBatcherCopiesKeys(t *testing.T) {
	eng, err := New(Config{Shards: 1, Build: build(geometries[0], 1)})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{Shards: 1, Build: build(geometries[0], 1)})
	if err != nil {
		t.Fatal(err)
	}
	b := eng.NewBatcher(128, 1)
	buf := make([]byte, 4)
	for i := 0; i < 100; i++ {
		copy(buf, key(uint64(i)))
		b.AddShard(0, buf)
		ref.UpdateShard(0, key(uint64(i)), 1)
	}
	b.Flush()
	snap, _ := eng.Snapshot()
	refSnap, _ := ref.Snapshot()
	registersEqual(t, refSnap, snap)
}

// TestBatcherSteadyStateAllocs: after warm-up (arena and view slices at
// full capacity), Add and Flush must not allocate — the engine half of the
// zero-alloc replay acceptance criterion.
func TestBatcherSteadyStateAllocs(t *testing.T) {
	eng, err := New(Config{Shards: 2, Build: build(geometries[0], 1)})
	if err != nil {
		t.Fatal(err)
	}
	b := eng.NewBatcher(64, 1)
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = key(uint64(i))
	}
	// Warm-up: grow arenas and view slices to steady-state capacity.
	for _, k := range keys {
		b.Add(k)
	}
	b.Flush()
	if avg := testing.AllocsPerRun(20, func() {
		for _, k := range keys {
			b.Add(k)
		}
		b.Flush()
	}); avg != 0 {
		t.Errorf("Batcher steady state allocates %.1f times per 256-key round, want 0", avg)
	}
}

// TestUpdateShardBatchAllocs: the locked batch update itself is
// allocation-free.
func TestUpdateShardBatchAllocs(t *testing.T) {
	eng, err := New(Config{Shards: 1, Build: build(geometries[0], 1)})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = key(uint64(i))
	}
	if avg := testing.AllocsPerRun(50, func() {
		eng.UpdateShardBatch(0, keys, 1)
	}); avg != 0 {
		t.Errorf("UpdateShardBatch allocates %.1f per call, want 0", avg)
	}
}

// TestEngineUpdateBatchEquivalence: batches placed on the first free
// shard must merge to registers bit-identical to the same stream fed
// through key-affinity Update, and advance Generation by len(keys).
func TestEngineUpdateBatchEquivalence(t *testing.T) {
	for gi, geom := range geometries {
		rng := rand.New(rand.NewSource(int64(gi)))
		plain, err := New(Config{Shards: 3, Build: build(geom, 9)})
		if err != nil {
			t.Fatal(err)
		}
		batched, err := New(Config{Shards: 3, Build: build(geom, 9)})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 40; round++ {
			keys := make([][]byte, rng.Intn(65)) // includes empty batches
			for i := range keys {
				keys[i] = key(uint64(rng.Intn(300)))
			}
			inc := uint64(1 + rng.Intn(5))
			for _, k := range keys {
				plain.Update(k, inc)
			}
			batched.UpdateBatch(keys, inc)
		}
		a, _ := plain.Snapshot()
		b, _ := batched.Snapshot()
		registersEqual(t, a, b)
		if plain.Generation() != batched.Generation() {
			t.Errorf("generation %d != %d: batch must advance by len(keys)",
				plain.Generation(), batched.Generation())
		}
	}
}

// TestUpdateBatchRoundRobinSpread: one goroutine's UpdateBatch calls never
// find a busy lock, so the round-robin start alone must spread them over
// every shard — otherwise a single writer would never exercise the merge.
func TestUpdateBatchRoundRobinSpread(t *testing.T) {
	eng, err := New(Config{Shards: 3, Build: build(geometries[0], 1)})
	if err != nil {
		t.Fatal(err)
	}
	keys := [][]byte{key(1), key(2), key(3), key(4)}
	for i := 0; i < 3; i++ {
		eng.UpdateBatch(keys, 1)
	}
	for i := range eng.shards {
		if got := eng.shards[i].gen.Load(); got != uint64(len(keys)) {
			t.Errorf("shard %d absorbed %d updates, want %d (one batch per shard)", i, got, len(keys))
		}
		if eng.shards[i].sk.TotalCount(0) == 0 {
			t.Errorf("shard %d is empty after round-robin batches", i)
		}
	}
}

// TestEngineUpdateBatchAllocs: the first-free-shard batch update is
// allocation-free.
func TestEngineUpdateBatchAllocs(t *testing.T) {
	eng, err := New(Config{Shards: 3, Build: build(geometries[0], 1)})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = key(uint64(i))
	}
	if avg := testing.AllocsPerRun(50, func() {
		eng.UpdateBatch(keys, 1)
	}); avg != 0 {
		t.Errorf("UpdateBatch allocates %.1f per call, want 0", avg)
	}
}

var _ interface {
	Update(key []byte, inc uint64)
	UpdateBatch(keys [][]byte, inc uint64)
} = (*core.Sketch)(nil)

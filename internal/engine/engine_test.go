package engine

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
)

func key(i uint64) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(i))
	return b[:]
}

// geometries are the sketch shapes the equivalence property is checked on:
// the paper's byte-aligned default, a narrow deep ablation shape, and a
// single-tree tall one. Small widths force heavy overflow traffic through
// the merge's carry logic.
var geometries = []core.Config{
	{K: 8, Trees: 2, LeafWidth: 512, Widths: []int{8, 16, 32}},
	{K: 4, Trees: 3, LeafWidth: 256, Widths: []int{4, 8, 16, 32}},
	{K: 2, Trees: 1, LeafWidth: 64, Widths: []int{2, 4, 8}},
}

func build(cfg core.Config, seed uint32) func() (*core.Sketch, error) {
	return func() (*core.Sketch, error) {
		c := cfg
		c.Hash = hashing.NewBobFamily(0xfc3141 ^ seed)
		return core.New(c)
	}
}

func registersEqual(t *testing.T, a, b *core.Sketch) {
	t.Helper()
	if a.NumTrees() != b.NumTrees() || a.Depth() != b.Depth() {
		t.Fatalf("geometry differs: trees %d/%d depth %d/%d",
			a.NumTrees(), b.NumTrees(), a.Depth(), b.Depth())
	}
	for tr := 0; tr < a.NumTrees(); tr++ {
		for l := 0; l < a.Depth(); l++ {
			av, bv := a.StageValues(tr, l), b.StageValues(tr, l)
			if len(av) != len(bv) {
				t.Fatalf("tree %d stage %d: %d vs %d nodes", tr, l, len(av), len(bv))
			}
			for i := range av {
				if av[i] != bv[i] {
					t.Fatalf("tree %d stage %d node %d: %d != %d", tr, l, i, av[i], bv[i])
				}
			}
		}
	}
}

// TestShardedMergeEquivalence is the merge-equivalence property test: for
// every geometry and several random streams, sharded ingest + merge must be
// register-bit-identical to serial ingest of the same stream.
func TestShardedMergeEquivalence(t *testing.T) {
	for gi, geom := range geometries {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(gi*100 + trial)))
			serial, err := build(geom, 7)()
			if err != nil {
				t.Fatal(err)
			}
			shards := 1 + rng.Intn(8)
			eng, err := New(Config{Shards: shards, Build: build(geom, 7)})
			if err != nil {
				t.Fatal(err)
			}
			// A skewed stream with increments large enough to overflow
			// the small geometries' leaves.
			n := 5_000 + rng.Intn(5_000)
			for i := 0; i < n; i++ {
				k := key(uint64(rng.Intn(400)))
				inc := uint64(1 + rng.Intn(7))
				serial.Update(k, inc)
				// Mix both writer modes; the merge result must not
				// depend on which shard absorbed which packet.
				if rng.Intn(2) == 0 {
					eng.Update(k, inc)
				} else {
					eng.UpdateShard(rng.Intn(shards), k, inc)
				}
			}
			merged, _ := eng.Snapshot()
			registersEqual(t, serial, merged)
		}
	}
}

// TestConcurrentWritersWithSnapshots hammers the engine with more writers
// than shards while snapshots are taken concurrently, then verifies the
// final merge is bit-identical to serial ingest. Run under -race this is
// the multi-writer safety test of the concurrency model.
func TestConcurrentWritersWithSnapshots(t *testing.T) {
	geom := geometries[0]
	const writers = 6
	const perWriter = 20_000
	eng, err := New(Config{Shards: 4, Build: build(geom, 3)})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				k := key(uint64(rng.Intn(1000)))
				if w%2 == 0 {
					eng.Update(k, 1)
				} else {
					eng.UpdateShard(w%eng.NumShards(), k, 1)
				}
			}
		}(w)
	}
	// Concurrent reader: snapshots must never block ingest or observe a
	// torn register state (merge panics on inconsistent geometry; -race
	// flags unsynchronized access).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			sk, _ := eng.Snapshot()
			if sk.TotalCount(0) > uint64(writers)*perWriter {
				t.Error("snapshot observed more packets than were sent")
				return
			}
		}
	}()
	wg.Wait()
	<-done

	// Replay the same deterministic streams serially and compare.
	serial, err := build(geom, 3)()
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		rng := rand.New(rand.NewSource(int64(w)))
		for i := 0; i < perWriter; i++ {
			serial.Update(key(uint64(rng.Intn(1000))), 1)
		}
	}
	merged, _ := eng.Snapshot()
	registersEqual(t, serial, merged)
}

func TestRotateReturnsClosedWindow(t *testing.T) {
	eng, err := New(Config{Shards: 3, Build: build(geometries[0], 9)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		eng.Update(key(uint64(i%50)), 1)
	}
	closed, packets := eng.Rotate()
	if got := closed.Estimate(key(7)); got != 20 {
		t.Errorf("closed-window estimate %d want 20", got)
	}
	if packets != 1000 || eng.Packets() != 0 {
		t.Errorf("closed window counted %d packets (live %d), want 1000 (0)", packets, eng.Packets())
	}
	fresh, _ := eng.Snapshot()
	if got := fresh.Estimate(key(7)); got != 0 {
		t.Errorf("post-rotate estimate %d want 0", got)
	}
}

func TestGenerationTracksUpdates(t *testing.T) {
	eng, err := New(Config{Shards: 2, Build: build(geometries[0], 1)})
	if err != nil {
		t.Fatal(err)
	}
	g0 := eng.Generation()
	eng.Update(key(1), 1)
	if eng.Generation() == g0 {
		t.Error("generation did not advance on update")
	}
	g1 := eng.Generation()
	if eng.Generation() != g1 {
		t.Error("generation advanced without updates")
	}
}

func TestEngineConfigErrors(t *testing.T) {
	if _, err := New(Config{Shards: 2}); err == nil {
		t.Error("expected error for missing Build")
	}
	if _, err := New(Config{Shards: -1, Build: build(geometries[0], 1)}); err == nil {
		t.Error("expected error for negative shards")
	}
	bad := func() (*core.Sketch, error) {
		return nil, errOops
	}
	if _, err := New(Config{Shards: 1, Build: bad}); err == nil {
		t.Error("expected build error to propagate")
	}
}

var errOops = &buildError{}

type buildError struct{}

func (*buildError) Error() string { return "oops" }

package fcm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// shardedGeometries spans small/medium geometries with different arities,
// tree counts and stage ladders, exercising the merge carry logic at every
// stage width.
var shardedGeometries = []Config{
	{LeafWidth: 512, K: 8, Trees: 2, Widths: []int{8, 16, 32}, Seed: 7},
	{LeafWidth: 256, K: 4, Trees: 3, Widths: []int{4, 8, 16, 32}, Seed: 11},
	{LeafWidth: 64, K: 2, Trees: 1, Widths: []int{2, 4, 8}, Seed: 13},
}

// zipfStream builds a deterministic skewed stream of (key, inc) pairs. The
// tiny leaf counters in the test geometries overflow quickly, so merges
// must carry correctly across every stage.
func zipfStream(seed int64, flows, packets int) (keys [][]byte, incs []uint64) {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(flows-1))
	for i := 0; i < packets; i++ {
		k := make([]byte, 4)
		binary.BigEndian.PutUint32(k, uint32(z.Uint64()))
		keys = append(keys, k)
		incs = append(incs, uint64(rng.Intn(3)+1))
	}
	return keys, incs
}

// requireSameRegisters fails unless a and b hold bit-identical counters.
func requireSameRegisters(t *testing.T, a, b *Sketch) {
	t.Helper()
	ac, bc := a.Core(), b.Core()
	if ac.NumTrees() != bc.NumTrees() || ac.Depth() != bc.Depth() {
		t.Fatalf("geometry mismatch: %dx%d vs %dx%d", ac.NumTrees(), ac.Depth(), bc.NumTrees(), bc.Depth())
	}
	for tree := 0; tree < ac.NumTrees(); tree++ {
		for l := 0; l < ac.Depth(); l++ {
			av, bv := ac.StageValues(tree, l), bc.StageValues(tree, l)
			for i := range av {
				if av[i] != bv[i] {
					t.Fatalf("tree %d stage %d node %d: %d vs %d", tree, l, i, av[i], bv[i])
				}
			}
		}
	}
}

// TestShardedBitIdenticalToSerial is the public-API merge-equivalence
// property test: across geometries and shard counts, a Sharded fed by
// key-affinity and by explicit shard ownership must snapshot bit-identical
// to a serial Sketch that saw the same stream (§5's exact merge).
func TestShardedBitIdenticalToSerial(t *testing.T) {
	for gi, cfg := range shardedGeometries {
		for _, shards := range []int{1, 2, 3, 5, 8} {
			t.Run(fmt.Sprintf("geom%d/shards%d", gi, shards), func(t *testing.T) {
				serial, err := NewSketch(cfg)
				if err != nil {
					t.Fatal(err)
				}
				sh, err := NewSharded(cfg, shards)
				if err != nil {
					t.Fatal(err)
				}
				keys, incs := zipfStream(int64(gi*100+shards), 2000, 20_000)
				for i, k := range keys {
					serial.Update(k, incs[i])
					if i%2 == 0 {
						sh.Update(k, incs[i]) // key-affinity path
					} else {
						sh.UpdateShard(i%shards, k, incs[i]) // ownership path
					}
				}
				requireSameRegisters(t, sh.Snapshot(), serial)
				// Derived queries agree too.
				if got, want := sh.Cardinality(), serial.Cardinality(); got != want {
					t.Errorf("cardinality %f vs serial %f", got, want)
				}
			})
		}
	}
}

// TestShardedConcurrentWritersAndSnapshots runs more than four concurrent
// writers against a Sharded while snapshots are taken in parallel, then
// checks the final snapshot is bit-identical to a serial replay. Half the
// writers use per-key Update, half UpdateBatch with batch sizes cycling
// through 1, 7, 256 and 1000, so first-free-shard batches race key-affinity
// updates and snapshots. Run under -race this is the data-race gate for
// the engine.
func TestShardedConcurrentWritersAndSnapshots(t *testing.T) {
	cfg := Config{LeafWidth: 1024, Seed: 3}
	const writers = 6
	const perWriter = 10_000
	sh, err := NewSharded(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	streams := make([][][]byte, writers)
	for w := range streams {
		keys, _ := zipfStream(int64(w), 1500, perWriter)
		streams[w] = keys
	}

	batchSizes := []int{1, 7, 256, 1000}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := streams[w]
			if w%2 == 0 {
				for _, k := range keys {
					sh.Update(k, 1)
				}
				return
			}
			for i := w; len(keys) > 0; i++ {
				n := min(batchSizes[i%len(batchSizes)], len(keys))
				sh.UpdateBatch(keys[:n], 1)
				keys = keys[n:]
			}
		}(w)
	}
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				snap := sh.Snapshot()
				if snap.Core().TotalCount(0) > uint64(writers*perWriter) {
					t.Error("snapshot observed more packets than were sent")
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	snapWG.Wait()

	serial, err := NewSketch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, keys := range streams {
		for _, k := range keys {
			serial.Update(k, 1)
		}
	}
	requireSameRegisters(t, sh.Snapshot(), serial)
}

// TestFrameworkRotateUnderConcurrentUpdate checks the windowing invariant:
// with updates racing Rotate, every update lands in exactly one window, so
// the per-window estimates of a lone flow key sum to the total sent. A
// single flow cannot collide with itself, so FCM counts it exactly.
func TestFrameworkRotateUnderConcurrentUpdate(t *testing.T) {
	fw, err := NewShardedFramework(Config{LeafWidth: 256, Seed: 17}, 4)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte{10, 0, 0, 1}
	const writers = 4
	const perWriter = 5_000

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				fw.UpdateShard(w, key, 1)
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var collected uint64
	for rotating := true; rotating; {
		select {
		case <-done:
			rotating = false
		default:
		}
		fw.Rotate()
		collected += fw.PreviousEstimate(key)
	}
	// One final rotation after all writers finished drains the last window.
	fw.Rotate()
	collected += fw.PreviousEstimate(key)
	if want := uint64(writers * perWriter); collected != want {
		t.Fatalf("windows sum to %d updates, want %d", collected, want)
	}
}

// TestConfigWidthsNotAliased is the regression test for the Widths slice
// aliasing fix: mutating the caller's slice after construction must not
// change the sketch's geometry or hashing.
func TestConfigWidthsNotAliased(t *testing.T) {
	widths := []int{8, 16, 32}
	cfg := Config{LeafWidth: 128, Widths: widths}
	sk, err := NewSketch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sk.Update([]byte("flow"), 300) // overflows an 8-bit leaf
	widths[0] = 2                  // caller scribbles on its slice

	if got := sk.Config().Widths[0]; got != 8 {
		t.Fatalf("sketch config widths[0] = %d after caller mutation, want 8", got)
	}
	if got := sk.Core().Widths()[0]; got != 8 {
		t.Fatalf("core widths[0] = %d after caller mutation, want 8", got)
	}
	if got := sk.Estimate([]byte("flow")); got != 300 {
		t.Fatalf("estimate %d after caller mutation, want 300", got)
	}
	// Same mutated slice reused for a Sharded: also unaffected.
	widths[0] = 8
	sh, err := NewSharded(Config{LeafWidth: 128, Widths: widths}, 2)
	if err != nil {
		t.Fatal(err)
	}
	widths[1] = 4
	if got := sh.Config().Widths[1]; got != 16 {
		t.Fatalf("sharded config widths[1] = %d after caller mutation, want 16", got)
	}
}

// TestMergeFromContracts exercises the Mergeable surface of the public
// types: exact merges across Sketch and Sharded, and the config/type
// mismatch errors.
func TestMergeFromContracts(t *testing.T) {
	cfg := Config{LeafWidth: 512, Seed: 23}
	keysA, incsA := zipfStream(1, 1000, 8_000)
	keysB, incsB := zipfStream(2, 1000, 8_000)

	serial, err := NewSketch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keysA {
		serial.Update(k, incsA[i])
	}
	for i, k := range keysB {
		serial.Update(k, incsB[i])
	}

	// Sketch ← Sketch.
	a, _ := NewSketch(cfg)
	b, _ := NewSketch(cfg)
	for i, k := range keysA {
		a.Update(k, incsA[i])
	}
	for i, k := range keysB {
		b.Update(k, incsB[i])
	}
	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	requireSameRegisters(t, a, serial)

	// Sharded ← Sharded and Sharded ← Sketch.
	sa, _ := NewSharded(cfg, 3)
	sb, _ := NewSharded(cfg, 2)
	for i, k := range keysA {
		sa.Update(k, incsA[i])
	}
	for i, k := range keysB {
		sb.Update(k, incsB[i])
	}
	if err := sa.MergeFrom(sb); err != nil {
		t.Fatal(err)
	}
	requireSameRegisters(t, sa.Snapshot(), serial)

	sc, _ := NewSharded(cfg, 2)
	single, _ := NewSketch(cfg)
	for i, k := range keysA {
		sc.Update(k, incsA[i])
	}
	for i, k := range keysB {
		single.Update(k, incsB[i])
	}
	if err := sc.MergeFrom(single); err != nil {
		t.Fatal(err)
	}
	requireSameRegisters(t, sc.Snapshot(), serial)

	// Mismatches are rejected.
	other, _ := NewSketch(Config{LeafWidth: 256, Seed: 23})
	if err := a.MergeFrom(other); err == nil {
		t.Error("merge across geometries should fail")
	}
	diffSeed, _ := NewSketch(Config{LeafWidth: 512, Seed: 99})
	if err := a.MergeFrom(diffSeed); err == nil {
		t.Error("merge across seeds should fail")
	}
	tk, _ := NewTopK(TopKConfig{Config: Config{MemoryBytes: 64 << 10}})
	if err := a.MergeFrom(tk); err == nil {
		t.Error("merge across concrete types should fail")
	}
}

// TestTopKMergeFrom checks the approximate FCM+TopK merge: residents of the
// source filter are re-inserted, residual sketches merge exactly, and a
// filter-pinned heavy flow keeps a one-sided estimate.
func TestTopKMergeFrom(t *testing.T) {
	cfg := TopKConfig{Config: Config{MemoryBytes: 64 << 10, Seed: 31}, TopKEntries: 64}
	a, err := NewTopK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTopK(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy := []byte{192, 168, 0, 1}
	keysA, _ := zipfStream(5, 500, 4_000)
	keysB, _ := zipfStream(6, 500, 4_000)
	for _, k := range keysA {
		a.Update(k, 1)
	}
	for _, k := range keysB {
		b.Update(k, 1)
	}
	a.Update(heavy, 5_000)
	b.Update(heavy, 7_000)

	if err := a.MergeFrom(b); err != nil {
		t.Fatal(err)
	}
	if got := a.Estimate(heavy); got < 12_000 {
		t.Errorf("merged heavy estimate %d < true 12000 (must stay one-sided)", got)
	}
	// Config mismatch rejected.
	c, _ := NewTopK(TopKConfig{Config: Config{MemoryBytes: 64 << 10, Seed: 31}, TopKEntries: 128})
	if err := a.MergeFrom(c); err == nil {
		t.Error("merge across filter sizes should fail")
	}
}

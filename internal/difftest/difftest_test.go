package difftest

import (
	"sync"
	"testing"
	"time"

	fcm "github.com/fcmsketch/fcm"
)

// TestDifferentialEquivalence is the tentpole sweep: for every fixed
// geometry, ≥100 seeded random workloads run through all ingest paths —
// serial, batch, sharded, engine-batcher, PISA — plus codec round-trip,
// rotate linearity and the exact oracle. Any divergence fails with the
// seed that reproduces it.
func TestDifferentialEquivalence(t *testing.T) {
	for gi, g := range Geometries() {
		g := g
		t.Run(g.String(), func(t *testing.T) {
			t.Parallel()
			trials(t, int64(0xd1ff0000)+int64(gi), 105, func(t *testing.T, seed int64) {
				w := RandomWorkload(seed)
				if err := CheckAll(g, w, seed); err != nil {
					t.Fatalf("workload %d packets: %v", w.NumPackets(), err)
				}
			})
		})
	}
}

// TestRandomGeometryEquivalence extends the sweep to randomly drawn
// geometries: arity, depth, widths, leaf width, seed and hash mode all
// derive from the trial seed, so the equivalence claim is not an artifact
// of the fixed geometry matrix.
func TestRandomGeometryEquivalence(t *testing.T) {
	t.Parallel()
	trials(t, 0x9e0000001, 80, func(t *testing.T, seed int64) {
		rng := newRng(seed)
		g := RandomGeometry(rng)
		w := RandomWorkload(DeriveSeed(seed, 1))
		if err := CheckAll(g, w, seed); err != nil {
			t.Fatalf("geometry %s, %d packets: %v", g, w.NumPackets(), err)
		}
	})
}

// TestConcurrentShardIngestBitExact drives the sharded engine from many
// goroutines at once and asserts the merged snapshot is still bit-identical
// to serial ingest. Under -race this doubles as the harness's concurrency
// gate: any unsynchronized counter access in the shard path trips here.
func TestConcurrentShardIngestBitExact(t *testing.T) {
	t.Parallel()
	trials(t, 0xc0c0c0c0c, 12, func(t *testing.T, seed int64) {
		g := Geometries()[int(uint64(seed)>>8)%len(Geometries())]
		w := RandomWorkload(seed)
		ref, err := Serial(g, w)
		if err != nil {
			t.Fatal(err)
		}
		writers := 2 + int(uint64(seed)%7)
		sh, err := newSharded(g, 1+int((uint64(seed)>>16)%7))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, part := range w.Split(writers) {
			part := part
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, k := range part.Keys {
					sh.Update(k, 1)
				}
			}()
		}
		wg.Wait()
		if err := requireEqual("concurrent sharded", ref, sh.Snapshot().Core()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRotateUnderConcurrentLoad rotates windows while writers are mid-
// stream. Each update must land in exactly one window, so merging every
// closed window with the final snapshot recovers the serial sketch
// bit-for-bit regardless of where the rotations fell.
func TestRotateUnderConcurrentLoad(t *testing.T) {
	t.Parallel()
	trials(t, 0x40747e00, 10, func(t *testing.T, seed int64) {
		g := Geometries()[int(uint64(seed)>>8)%len(Geometries())]
		w := RandomWorkload(seed)
		ref, err := Serial(g, w)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := newSharded(g, 1+int((uint64(seed)>>16)%7))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, part := range w.Split(3) {
			part := part
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, k := range part.Keys {
					sh.Update(k, 1)
				}
			}()
		}
		var closed []*fcm.Sketch
		var packets uint64
		for r := 2 + int(uint64(seed)%3); r > 0; r-- {
			time.Sleep(200 * time.Microsecond)
			c, n := sh.Rotate()
			closed = append(closed, c)
			packets += n
		}
		wg.Wait()
		if packets += sh.Engine().Packets(); packets != uint64(len(w.Keys)) {
			t.Fatalf("closed + live windows counted %d packets, want %d", packets, len(w.Keys))
		}
		total := sh.Snapshot()
		for _, c := range closed {
			if err := total.Merge(c); err != nil {
				t.Fatalf("merging closed window: %v", err)
			}
		}
		if err := requireEqual("rotate under load", ref, total.Core()); err != nil {
			t.Fatal(err)
		}
	})
}

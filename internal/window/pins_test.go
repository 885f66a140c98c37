package window

import (
	"runtime"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
)

// oneProc runs the rest of the test on one P, so every sketch the ring
// recycles lands in the one per-P slot of the engine's spare pool that
// the next Spare reads. (With several Ps a recycled sketch can wait in
// another P's private slot; that pool behaviour is not what these tests
// pin.) sync.Pool also drops entries at random under the race detector,
// so the tests that count spares skip there.
func oneProc(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// pinRing builds a two-shard ring that coarsens on every other rotation
// and drops buckets within a few windows.
func pinRing(t *testing.T) *Ring {
	t.Helper()
	r, err := New(Config{
		Sketch:     engine.SketchConfig{LeafWidth: 512},
		Shards:     2,
		MaxWindows: 6,
		SpanCap:    1,
		Now:        testClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pinWindowRotate ingests window g of pinWindow and rotates it closed.
func pinWindowRotate(t *testing.T, r *Ring, g uint64) {
	t.Helper()
	if err := r.UpdateBatch(pinWindow(g), 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Rotate(); err != nil {
		t.Fatal(err)
	}
}

// pinAll pins every retained bucket, as a query's covering scan does.
func (r *Ring) pinAll() []*bucket {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.coveringLocked(LastWindows(0))
}

// TestSteadyRotationBuildsNothing: once warm, a ring rotated every window
// builds no sketch — with a per-window SnapshotOverTime caller that keeps
// or drops its copy, and with a reader that pins every bucket across the
// coarsening merges and retention drops of the next rotations. Snapshots
// are clones, not spares, and a pinned bucket that leaves the ring comes
// back through its last unpin.
func TestSteadyRotationBuildsNothing(t *testing.T) {
	oneProc(t)
	cases := []struct {
		name   string
		window func(t *testing.T, r *Ring, g uint64)
	}{
		{"snapshot-per-window", func(t *testing.T, r *Ring, g uint64) {
			pinWindowRotate(t, r, g)
			if _, _, err := r.SnapshotOverTime(LastWindows(1)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := r.CardinalityOverTime(LastWindows(1)); err != nil {
				t.Fatal(err)
			}
		}},
		{"pins-across-coarsening", func(t *testing.T, r *Ring, g uint64) {
			pins := r.pinAll()
			for i := uint64(0); i < 3; i++ {
				pinWindowRotate(t, r, 3*g+i)
			}
			r.unpin(pins)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := pinRing(t)
			const warm, windows = 32, 64
			for g := uint64(1); g <= warm; g++ {
				c.window(t, r, g)
			}
			before, st := r.live.Builds(), r.Stats()
			for g := uint64(warm + 1); g <= warm+windows; g++ {
				c.window(t, r, g)
			}
			after := r.Stats()
			if after.CoarsenMerges == st.CoarsenMerges || after.DroppedWindows == st.DroppedWindows {
				t.Fatalf("ring neither coarsened nor dropped while measured: test exercises nothing")
			}
			if n := r.live.Builds() - before; n != 0 {
				t.Fatalf("%d sketches built over %d steady windows, want 0", n, windows)
			}
		})
	}
}

// TestPinnedBucketRecycledOnce: a bucket that leaves the ring while a
// reader pins it keeps its registers until the reader lets go, and its
// sketch then returns to the spares exactly once — whether it left as a
// coarsening source (merged into a copy) or by retention.
func TestPinnedBucketRecycledOnce(t *testing.T) {
	oneProc(t)
	r := pinRing(t)
	for g := uint64(1); g <= 8; g++ {
		pinWindowRotate(t, r, g)
	}
	pins := r.pinAll()
	want := make([]*core.Sketch, len(pins))
	for i, b := range pins {
		want[i] = b.sk.Clone()
	}
	// Every pinned bucket coarsens or ages out of the six-window horizon.
	for g := uint64(9); g <= 20; g++ {
		pinWindowRotate(t, r, g)
	}
	drain := func() map[*core.Sketch]int {
		seen := make(map[*core.Sketch]int)
		for sk := r.live.Spare(); sk != nil; sk = r.live.Spare() {
			seen[sk]++
		}
		return seen
	}
	early := drain()
	for i, b := range pins {
		if b.state.Load() != retiredBit|1 {
			t.Fatalf("pinned bucket %d has state %#x, want retired with one pin", i, b.state.Load())
		}
		if !b.sk.EqualRegisters(want[i]) {
			t.Fatalf("pinned bucket %d's registers changed while pinned", i)
		}
		if early[b.sk] != 0 {
			t.Fatalf("pinned bucket %d's sketch was recycled while pinned", i)
		}
	}
	r.unpin(pins)
	late := drain()
	for i, b := range pins {
		if late[b.sk] != 1 {
			t.Fatalf("bucket %d's sketch recycled %d times by its last unpin, want 1", i, late[b.sk])
		}
	}
}

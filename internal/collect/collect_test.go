package collect

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/hashing"
)

func k(i uint64) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(i))
	return b[:]
}

// Every data plane the server collects from satisfies the one Source
// contract directly, with no adapter.
var (
	_ Source = (*engine.Engine)(nil)
	_ Source = (*LockedSketch)(nil)
	_ Source = (*Aggregator)(nil)
)

// snapshotOf returns src's snapshot without its generation.
func snapshotOf(src Source) *core.Sketch {
	sk, _ := src.Snapshot()
	return sk
}

func filledSketch(t testing.TB) *core.Sketch {
	t.Helper()
	s, err := core.New(core.Config{
		K: 4, Trees: 2, LeafWidth: 256, Widths: []int{8, 16, 32},
		Hash: hashing.NewBobFamily(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		s.Update(k(i%300), 1+i%5)
	}
	return s
}

func sketchesEqual(a, b *core.Sketch) bool {
	for t := 0; t < a.NumTrees(); t++ {
		for l := 0; l < a.Depth(); l++ {
			av, bv := a.StageValues(t, l), b.StageValues(t, l)
			if len(av) != len(bv) {
				return false
			}
			for i := range av {
				if av[i] != bv[i] {
					return false
				}
			}
		}
	}
	return true
}

func TestSnapshotEncodeDecode(t *testing.T) {
	s := filledSketch(t)
	snap := TakeSnapshot(s)
	data, err := snap.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != 4 || got.Trees != 2 || got.W1 != 256 || len(got.Widths) != 3 {
		t.Fatalf("geometry %+v", got)
	}
	restored, err := got.Restore(hashing.NewBobFamily(42))
	if err != nil {
		t.Fatal(err)
	}
	if !sketchesEqual(s, restored) {
		t.Error("restored sketch differs from original")
	}
	// With the matching hash family, queries agree too.
	for i := uint64(0); i < 300; i++ {
		if s.Estimate(k(i)) != restored.Estimate(k(i)) {
			t.Fatalf("flow %d estimate differs", i)
		}
	}
}

func TestSnapshotVirtualCounters(t *testing.T) {
	s := filledSketch(t)
	snap := TakeSnapshot(s)
	vcs, err := snap.VirtualCounters()
	if err != nil {
		t.Fatal(err)
	}
	want := s.VirtualCounters()
	if len(vcs) != len(want) {
		t.Fatalf("tree count %d want %d", len(vcs), len(want))
	}
	for tr := range vcs {
		if len(vcs[tr]) != len(want[tr]) {
			t.Fatalf("tree %d: %d VCs want %d", tr, len(vcs[tr]), len(want[tr]))
		}
		for i := range vcs[tr] {
			if vcs[tr][i] != want[tr][i] {
				t.Fatalf("tree %d vc %d: %+v want %+v", tr, i, vcs[tr][i], want[tr][i])
			}
		}
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	s := filledSketch(t)
	snap := TakeSnapshot(s)
	before := snap.Values[0][0][0]
	s.Update(k(999999), 1000000)
	for i := 0; i < 10000; i++ {
		s.Update(k(uint64(i)), 3)
	}
	if snap.Values[0][0][0] != before {
		t.Error("snapshot aliases live registers")
	}
}

func TestDecodeErrors(t *testing.T) {
	s := filledSketch(t)
	data, err := TakeSnapshot(s).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":     nil,
		"short":     data[:5],
		"bad magic": append([]byte{9, 9, 9, 9}, data[4:]...),
		"trailing":  append(append([]byte{}, data...), 0xff),
		"truncated": data[:len(data)-3],
	}
	for name, d := range cases {
		if _, err := DecodeSnapshot(d); err == nil {
			t.Errorf("%s: expected decode error", name)
		}
	}
	// Version mismatch.
	bad := append([]byte{}, data...)
	bad[4] = 99
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Error("version: expected decode error")
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, err := (&Snapshot{Trees: 0}).Encode(); err == nil {
		t.Error("expected geometry error")
	}
	s := &Snapshot{Trees: 1, Widths: []int{8, 16}, Values: [][][]uint32{{{1}}}}
	if _, err := s.Encode(); err == nil {
		t.Error("expected stage-count mismatch error")
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	s := filledSketch(t)
	srv, err := NewServer("127.0.0.1:0", NewLockedSketch(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	snap, err := cl.ReadSketch()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := snap.Restore(hashing.NewBobFamily(42))
	if err != nil {
		t.Fatal(err)
	}
	if !sketchesEqual(s, restored) {
		t.Error("collected sketch differs from data plane")
	}

	// Reset over the wire.
	if err := cl.ResetSketch(); err != nil {
		t.Fatal(err)
	}
	snap2, err := cl.ReadSketch()
	if err != nil {
		t.Fatal(err)
	}
	for _, tree := range snap2.Values {
		for _, stage := range tree {
			for _, v := range stage {
				if v != 0 {
					t.Fatal("registers non-zero after remote reset")
				}
			}
		}
	}
}

func TestServerConcurrentCollect(t *testing.T) {
	ls := NewLockedSketch(filledSketch(t))
	srv, err := NewServer("127.0.0.1:0", ls)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Writer keeps updating through the locked source while readers
	// collect copy-on-read snapshots.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ls.Update(k(i%100), 1)
		}
	}()

	for r := 0; r < 4; r++ {
		cl, err := Dial(srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := cl.ReadSketch(); err != nil {
				t.Fatal(err)
			}
		}
		cl.Close()
	}
	close(stop)
	wg.Wait()
}

// TestServerShardedEngineSource serves a 4-shard engine while 4 writers
// ingest concurrently: collection must observe consistent snapshots and
// never stall ingest (no global lock exists to stall it with).
func TestServerShardedEngineSource(t *testing.T) {
	eng, err := engine.New(engine.Config{
		Shards: 4,
		Build: func() (*core.Sketch, error) {
			return core.New(core.Config{
				K: 4, Trees: 2, LeafWidth: 256, Widths: []int{8, 16, 32},
				Hash: hashing.NewBobFamily(42),
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const writers, perWriter = 4, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				eng.UpdateShard(w, k(uint64(w*1000+i%200)), 1)
			}
		}(w)
	}

	cl, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 10; i++ {
		if _, err := cl.ReadSketch(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	// The final collected snapshot equals the engine's own exact merge.
	snap, err := cl.ReadSketch()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := snap.Restore(hashing.NewBobFamily(42))
	if err != nil {
		t.Fatal(err)
	}
	if !sketchesEqual(restored, snapshotOf(eng)) {
		t.Error("collected snapshot differs from engine merge")
	}
}

func TestClientDialError(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 50*time.Millisecond); err == nil {
		t.Error("expected dial error to closed port")
	}
}

func TestServerRejectsUnknownOpcode(t *testing.T) {
	s := filledSketch(t)
	srv, err := NewServer("127.0.0.1:0", NewLockedSketch(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.roundTrip([]byte{0xEE}); err == nil {
		t.Error("expected unknown-opcode error")
	}
}

// TestDrainRoundExactlyOnce pins the windowed-aggregation contract: every
// absorbed member snapshot joins exactly one drained round, so a member
// that misses a poll is simply absent from that round — its previous
// (already drained) snapshot is never re-merged. Snapshot, by
// contrast, re-merges every member's latest snapshot: correct for
// cumulative collection, double-counting for reset-mode windows.
func TestDrainRoundExactlyOnce(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Members:     []PollerConfig{{Addr: "a"}, {Addr: "b"}},
		Interval:    time.Second,
		TrackRounds: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	newSketch := func() *core.Sketch {
		s, err := core.New(core.Config{
			K: 4, Trees: 2, LeafWidth: 256, Widths: []int{8, 16, 32},
			Hash: hashing.NewBobFamily(42),
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	intervalSnap := func(flow, n uint64) *Snapshot {
		s := newSketch()
		s.Update(k(flow), n)
		return TakeSnapshot(s)
	}

	// Round 1: both members report one interval of traffic.
	if err := agg.storeMember("a", intervalSnap(1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := agg.storeMember("b", intervalSnap(2, 7)); err != nil {
		t.Fatal(err)
	}
	r1 := agg.DrainRound()
	if r1 == nil {
		t.Fatal("round 1 drained nil with two pending snapshots")
	}

	// Round 2: only member a reports (b's poll failed).
	if err := agg.storeMember("a", intervalSnap(1, 3)); err != nil {
		t.Fatal(err)
	}
	r2 := agg.DrainRound()
	if r2 == nil {
		t.Fatal("round 2 drained nil with one pending snapshot")
	}
	onlyA2 := newSketch()
	onlyA2.Update(k(1), 3)
	if !sketchesEqual(r2, onlyA2) {
		t.Fatal("round 2 is not bit-identical to member a's interval alone: a missed poll re-contributed stale traffic")
	}

	// The concatenation of drained rounds == serial ingest of every
	// member interval exactly once (merge is exact, §5).
	serial := newSketch()
	serial.Update(k(1), 5)
	serial.Update(k(2), 7)
	serial.Update(k(1), 3)
	folded := r1.Clone()
	if err := folded.Merge(r2); err != nil {
		t.Fatal(err)
	}
	if !sketchesEqual(folded, serial) {
		t.Fatal("merged drained rounds diverge from serial re-ingest of all member intervals")
	}

	// Round 3: nobody reported — nothing to file.
	if got := agg.DrainRound(); got != nil {
		t.Fatalf("round 3 drained %v, want nil (no member reported)", got)
	}

	// Without TrackRounds nothing is retained.
	plain, err := NewAggregator(AggregatorConfig{
		Members:  []PollerConfig{{Addr: "a"}},
		Interval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.storeMember("a", intervalSnap(1, 1)); err != nil {
		t.Fatal(err)
	}
	if plain.DrainRound() != nil {
		t.Fatal("DrainRound returned a sketch without TrackRounds")
	}
}

package collect

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/insight"
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
	if d := s.FirstRegisterDiff(restored); d != "" {
		t.Errorf("restored sketch differs from original: %s", d)
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
	before := slices.Clone(snap.Regs)
	s.Update(k(999999), 1000000)
	for i := 0; i < 10000; i++ {
		s.Update(k(uint64(i)), 3)
	}
	if !bytes.Equal(snap.Regs, before) {
		t.Error("snapshot aliases live registers")
	}
}

// TestSnapshotCarriesCounterEncoding: a flag-bit sketch must come back
// flag-bit encoded through TakeSnapshot → Encode → DecodeSnapshot →
// Restore. Restored with the max-value marker instead, every flag-bit
// mark (2^(b-1)) reads as a plain count, and key 0's estimate collapses.
func TestSnapshotCarriesCounterEncoding(t *testing.T) {
	fam := hashing.NewBobFamily(42)
	s, err := core.New(core.Config{
		K: 8, Trees: 2, LeafWidth: 512, Widths: []int{8, 16, 32},
		Hash: fam, FlagBitIndicator: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Key 0 overflows its 7-bit-capacity leaf into stage 1.
	s.Update(k(0), 286)
	for i := uint64(1); i < 2000; i++ {
		s.Update(k(i%300), 1+i%5)
	}
	data, err := TakeSnapshot(s).Encode()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.FlagBit {
		t.Fatal("decoded snapshot lost the flag-bit encoding")
	}
	restored, err := snap.Restore(fam)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.FirstRegisterDiff(restored); d != "" {
		t.Fatalf("restored sketch differs: %s", d)
	}
	if !restored.FlagBitIndicator() {
		t.Fatal("restored sketch is marker-encoded")
	}
	if got, want := restored.Estimate(k(0)), s.Estimate(k(0)); got != want {
		t.Fatalf("key 0 estimate %d after the round trip, %d before", got, want)
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
	s := &Snapshot{K: 2, Trees: 1, W1: 2, Widths: []int{8, 16}, Regs: []byte{1}}
	if _, err := s.Encode(); err == nil {
		t.Error("expected register-length mismatch error")
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	s := filledSketch(t)
	srv, err := NewServer("127.0.0.1:0", NewLockedSketch(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := NewClient(ClientConfig{Addr: srv.Addr(), DialTimeout: time.Second, IOTimeout: time.Second})
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
	if d := s.FirstRegisterDiff(restored); d != "" {
		t.Errorf("collected sketch differs from data plane: %s", d)
	}

	// Reset over the wire.
	if err := cl.ResetSketch(); err != nil {
		t.Fatal(err)
	}
	snap2, err := cl.ReadSketch()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range snap2.Regs {
		if b != 0 {
			t.Fatal("registers non-zero after remote reset")
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
		cl, err := NewClient(ClientConfig{Addr: srv.Addr(), DialTimeout: time.Second, IOTimeout: time.Second})
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
		Sketch: core.Config{
			K: 4, Trees: 2, LeafWidth: 256, Widths: []int{8, 16, 32},
			Hash: hashing.NewBobFamily(42),
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

	cl, err := NewClient(ClientConfig{Addr: srv.Addr(), DialTimeout: time.Second, IOTimeout: time.Second})
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
	if d := restored.FirstRegisterDiff(snapshotOf(eng)); d != "" {
		t.Errorf("collected snapshot differs from engine merge: %s", d)
	}
}

func TestClientDialError(t *testing.T) {
	cl, err := NewClient(ClientConfig{Addr: "127.0.0.1:1", DialTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadSketch(); err == nil {
		t.Error("expected dial error to closed port")
	}
}

// TestServerRejectsUnknownOpcode pins the wire's answer to an opcode the
// server does not serve — including 1, the retired codec v2 full read,
// which stays reserved: an error status naming the opcode, then a closed
// connection.
func TestServerRejectsUnknownOpcode(t *testing.T) {
	s := filledSketch(t)
	srv, err := NewServer("127.0.0.1:0", NewLockedSketch(s))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, op := range []byte{1, 0xEE} {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // enforced by the I/O below
		if err := writeFrame(conn, []byte{op}); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(conn)
		if err != nil {
			t.Fatalf("opcode %d: %v", op, err)
		}
		want := fmt.Sprintf("unknown opcode %d", op)
		if len(resp) == 0 || resp[0] != statusErr || string(resp[1:]) != want {
			t.Errorf("opcode %d: response %q, want status error %q", op, resp, want)
		}
		if _, err := readFrame(conn); err != io.EOF {
			t.Errorf("opcode %d: after the error status got %v, want the connection closed (EOF)", op, err)
		}
		conn.Close()
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
	if d := r2.FirstRegisterDiff(onlyA2); d != "" {
		t.Fatalf("round 2 is not bit-identical to member a's interval alone: a missed poll re-contributed stale traffic: %s", d)
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
	if d := folded.FirstRegisterDiff(serial); d != "" {
		t.Fatalf("merged drained rounds diverge from serial re-ingest of all member intervals: %s", d)
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

// TestAggregatorInsightReportObservesOnce: the region report sits behind
// one prober. Before the first member snapshot there is no region; once
// members report, concurrent reports inside one TTL merge and observe the
// region once, so its trend history gains one observation. That fold is
// not a served export, so only the Snapshot after it counts as a merge.
func TestAggregatorInsightReportObservesOnce(t *testing.T) {
	agg, err := NewAggregator(AggregatorConfig{
		Members:  []PollerConfig{{Addr: "a"}, {Addr: "b"}},
		Interval: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fr := agg.InsightReport(); fr.Region != nil {
		t.Fatalf("region report %+v before any member snapshot", *fr.Region)
	}
	for i, addr := range []string{"a", "b"} {
		// Paper-sized members make the region merge slow enough for the
		// readers below to overlap it.
		s, err := core.New(core.Config{K: 8, Trees: 2, MemoryBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		s.Update(k(uint64(i)), 10)
		if err := agg.storeMember(addr, TakeSnapshot(s)); err != nil {
			t.Fatal(err)
		}
	}

	const readers = 16
	reports := make([]insight.FleetReport, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			reports[i] = agg.InsightReport()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, fr := range reports {
		if fr.Region == nil {
			t.Fatalf("reader %d: no region report with both members in", i)
		}
		if fr.Region.Window != 1 || fr.Region.Norm1 != 20 {
			t.Fatalf("reader %d: region window %d norm1 %v, want window 1 norm1 20", i, fr.Region.Window, fr.Region.Norm1)
		}
		if len(fr.Members) != 2 {
			t.Fatalf("reader %d: %d member reports, want 2", i, len(fr.Members))
		}
	}
	// The insight probe's fold is not a served export: only Snapshot and
	// DrainRound count toward fcm_aggregator_merges_total.
	if got := agg.Stats().Merges; got != 0 {
		t.Fatalf("%d insight reports counted %d served merges, want 0", readers, got)
	}
	if sk, _ := agg.Snapshot(); sk == nil {
		t.Fatal("no region snapshot with both members in")
	}
	if got := agg.Stats().Merges; got != 1 {
		t.Fatalf("one served Snapshot counted %d merges, want 1", got)
	}
}

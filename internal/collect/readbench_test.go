package collect

import (
	"bytes"
	"runtime"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
)

// alternation is an engine served over loopback TCP to one client, and
// two windows of registers the engine takes turns holding: the reset-mode
// collection round, in which every read's registers are a fresh window
// diffed against the one before it.
type alternation struct {
	eng  *engine.Engine
	srv  *Server
	cl   *Client
	wins [2]*core.Sketch
}

func newAlternation(tb testing.TB, cfg core.Config, wins [2]*core.Sketch) *alternation {
	tb.Helper()
	eng, err := engine.New(engine.Config{Sketch: cfg})
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", eng)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	cl, err := NewClient(ClientConfig{Addr: srv.Addr()})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	return &alternation{eng: eng, srv: srv, cl: cl, wins: wins}
}

// load makes the engine hold window i%2 alone.
func (a *alternation) load(tb testing.TB, i int) {
	a.eng.Reset()
	if err := a.eng.MergeShard(0, a.wins[i%2], 1); err != nil {
		tb.Fatal(err)
	}
}

// read reads the engine's registers through the client.
func (a *alternation) read(tb testing.TB) *Snapshot {
	snap, err := a.cl.ReadSketch()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// BenchmarkReadSketch times one collection read end to end — the server's
// register copy, diff and frame, loopback TCP, and the client's verify,
// in-place apply and the caller's copy — on the paper pair in reset-mode
// alternation. B/op and allocs/op count server and client together;
// wireB/op is the response frame, fullB/op the part of it that fell back
// to full snapshots (0 in steady state).
func BenchmarkReadSketch(b *testing.B) {
	wins, err := paperSketchPair()
	if err != nil {
		b.Fatal(err)
	}
	a := newAlternation(b, paperConfig, wins)
	for i := 0; i < 3; i++ { // a full read, then the buffers warm
		a.load(b, i)
		a.read(b)
	}
	before := a.srv.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a.load(b, i+1)
		b.StartTimer()
		a.read(b)
	}
	b.StopTimer()
	after := a.srv.Stats()
	delta, full := after.DeltaWireBytes-before.DeltaWireBytes, after.FullWireBytes-before.FullWireBytes
	b.ReportMetric(float64(delta+full)/float64(b.N), "wireB/op")
	b.ReportMetric(float64(full)/float64(b.N), "fullB/op")
}

// TestReadSketchAllocs pins what a steady delta read allocates, server
// and client together: the caller's snapshot and a small constant. The
// server copies the registers into the sketch its session releases and
// diffs into the connection's response buffer; the client reads into its
// kept receive buffer and applies from there. Reads alternate two dense
// windows, so every one is a real delta.
func TestReadSketchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	cfg := core.Config{K: 8, Trees: 2, LeafWidth: 1 << 15, Widths: core.DefaultWidths()}
	var wins [2]*core.Sketch
	for i := range wins {
		sk, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for j := uint64(0); j < 1<<14; j++ {
			sk.Update(k(uint64(i)<<32|j), 1+j%3)
		}
		wins[i] = sk
	}
	a := newAlternation(t, cfg, wins)
	for i := 0; i < 4; i++ {
		a.load(t, i)
		a.read(t)
	}
	const reads = 32
	var caller uint64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < reads; i++ {
		a.load(t, i)
		snap := a.read(t)
		caller += uint64(cap(snap.Regs))
	}
	runtime.ReadMemStats(&after)
	if st := a.cl.Stats(); st.FullSnapshots != 1 {
		t.Fatalf("%d full snapshots, want only the first read's: the reads are not steady deltas", st.FullSnapshots)
	}
	const slack = 1 << 10
	perRead, snapBytes := (after.TotalAlloc-before.TotalAlloc)/reads, caller/reads
	t.Logf("%d B per read, %d B of them the caller's registers", perRead, snapBytes)
	if perRead > snapBytes+slack {
		t.Fatalf("a steady delta read allocates %d B, want at most the caller's %d B + %d", perRead, snapBytes, slack)
	}
}

// TestDenseReadFallsBackToFull drives a served read whose changes outgrow
// the bounded diff slots though its delta would still undercut the full
// frame: about 60 % of one window's leaves differ from the other's. The
// server sends a full frame (delta_larger), the client's copy still
// equals the engine's registers, and the next sparse read is a delta
// again.
func TestDenseReadFallsBackToFull(t *testing.T) {
	cfg := core.Config{K: 8, Trees: 2, LeafWidth: 1 << 15, Widths: core.DefaultWidths()}
	var wins [2]*core.Sketch
	for i := range wins {
		sk, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		wins[i] = sk
	}
	for j := uint64(0); j < 30000; j++ {
		wins[1].Update(k(j), 1)
	}
	a := newAlternation(t, cfg, wins)
	check := func(i int, kind string) {
		t.Helper()
		a.load(t, i)
		snap := a.read(t)
		want, _ := a.eng.Snapshot()
		if !bytes.Equal(snap.Regs, TakeSnapshot(want).Regs) {
			t.Fatalf("read %d (%s): the snapshot differs from the engine's registers", i, kind)
		}
	}
	check(0, "first, full")
	check(1, "dense")
	if fb := a.srv.Stats().Fallbacks["delta_larger"]; fb != 1 {
		t.Fatalf("%d delta_larger fallbacks after the dense read, want 1", fb)
	}
	wins[1].Update(k(1<<20), 1)
	check(1, "sparse")
	if st := a.cl.Stats(); st.FullSnapshots != 2 || st.DeltasApplied != 1 {
		t.Fatalf("%d full snapshots and %d deltas, want 2 and 1", st.FullSnapshots, st.DeltasApplied)
	}
}

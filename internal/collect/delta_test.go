package collect

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/hashing"
)

// buildEngine is a generational leaf source for delta tests.
func buildEngine(t testing.TB) *engine.Engine {
	t.Helper()
	eng, err := engine.New(engine.Config{Sketch: core.Config{
		K: 4, Trees: 2, LeafWidth: 256, Widths: []int{8, 16, 32},
		Hash: hashing.NewBobFamily(42),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestDiffApplyRoundTrip(t *testing.T) {
	s := filledSketch(t)
	base := TakeSnapshot(s)
	for i := uint64(0); i < 500; i++ {
		s.Update(k(1000+i%40), 3)
	}
	cur := TakeSnapshot(s)

	blocks, ok := DiffSnapshots(base, cur)
	if !ok {
		t.Fatal("diff refused snapshots of identical geometry")
	}
	if len(blocks) == 0 {
		t.Fatal("500 updates produced an empty diff")
	}
	got, err := ApplyDelta(base, blocks)
	if err != nil {
		t.Fatal(err)
	}
	gotSk, err := got.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	curSk, err := cur.Restore(nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := curSk.FirstRegisterDiff(gotSk); d != "" {
		t.Fatalf("apply(base, diff(base, cur)) != cur: %s", d)
	}
	if got.StateCRC() != cur.StateCRC() {
		t.Fatal("state CRC differs after exact reconstruction")
	}
	// The base must not have been mutated by the apply.
	if base.StateCRC() == cur.StateCRC() {
		t.Fatal("base snapshot was mutated by ApplyDelta")
	}
}

func TestDiffEmptyAndGeometry(t *testing.T) {
	snap := TakeSnapshot(filledSketch(t))
	blocks, ok := DiffSnapshots(snap, snap.Clone())
	if !ok || len(blocks) != 0 {
		t.Fatalf("identical snapshots: ok=%v blocks=%d, want true/0", ok, len(blocks))
	}
	other := TakeSnapshot(goldenSketch(t))
	if _, ok := DiffSnapshots(snap, other); ok {
		t.Fatal("diff accepted mismatched geometries")
	}
	if _, ok := DiffSnapshots(snap, nil); ok {
		t.Fatal("diff accepted nil current")
	}
}

func TestApplyDeltaRejectsOutOfRange(t *testing.T) {
	base := TakeSnapshot(filledSketch(t))
	// root builds a block for the root stage of tree 0 (16 four-byte
	// counters, eight words): one map word, one mask and the value 9.
	root := func(counters int, mapWord uint64, mask byte) DeltaBlock {
		body := binary.LittleEndian.AppendUint64([]byte{1}, mapWord)
		body = append(body, mask, 9, 0, 0, 0)
		return DeltaBlock{Stage: 2, Size: 4, Counters: counters, Body: body}
	}
	if _, err := ApplyDelta(base, []DeltaBlock{root(16, 1, 1)}); err != nil {
		t.Fatalf("well-formed block: %v", err)
	}
	with := func(b DeltaBlock, edit func(*DeltaBlock)) DeltaBlock {
		edit(&b)
		return b
	}
	for _, tc := range []struct {
		name  string
		block DeltaBlock
	}{
		{"tree", with(root(16, 1, 1), func(b *DeltaBlock) { b.Tree = 99 })},
		{"stage", with(root(16, 1, 1), func(b *DeltaBlock) { b.Stage = 99 })},
		// A block diffed against a stage of another length or width.
		{"counters", root(32, 1, 1)},
		{"width", with(root(16, 1, 1), func(b *DeltaBlock) { b.Size = 2 })},
		{"word past the stage", root(16, 1<<8, 1)},
		{"field past the word", root(16, 1, 0b100)},
		{"empty mask", root(16, 1, 0)},
		{"zero map word", root(16, 0, 1)},
		{"truncated", with(root(16, 1, 1), func(b *DeltaBlock) { b.Body = b.Body[:len(b.Body)-1] })},
		{"trailing", with(root(16, 1, 1), func(b *DeltaBlock) { b.Body = append(b.Body, 0) })},
	} {
		if _, err := ApplyDelta(base, []DeltaBlock{tc.block}); err == nil {
			t.Errorf("%s: bad block applied without error", tc.name)
		}
	}
	// A stage of four one-byte counters ends inside its only word: a mask
	// may mark counters 0-3 and nothing after them.
	golden := TakeSnapshot(goldenSketch(t))
	leaf := func(mask byte) DeltaBlock {
		body := binary.LittleEndian.AppendUint64([]byte{1}, 1)
		return DeltaBlock{Size: 1, Counters: 4, Body: append(body, mask, 1)}
	}
	if _, err := ApplyDelta(golden, []DeltaBlock{leaf(0b1000)}); err != nil {
		t.Fatalf("last counter of a partial word: %v", err)
	}
	if _, err := ApplyDelta(golden, []DeltaBlock{leaf(0b10000)}); err == nil {
		t.Error("a mask past a partial word's last counter applied without error")
	}
}

func TestDeltaFrameRoundTrip(t *testing.T) {
	s := filledSketch(t)
	base := TakeSnapshot(s)
	s.Update(k(9999), 7)
	cur := TakeSnapshot(s)
	blocks, _ := DiffSnapshots(base, cur)

	for _, tc := range []struct {
		name  string
		frame *DeltaFrame
	}{
		{"delta", &DeltaFrame{BaseGen: 10, NewGen: 11, StateCRC: cur.StateCRC(), Blocks: blocks}},
		{"empty", &DeltaFrame{BaseGen: 5, NewGen: 5, StateCRC: base.StateCRC()}},
		{"full", &DeltaFrame{Full: true, NewGen: 3, StateCRC: cur.StateCRC(), Snap: cur}},
	} {
		data, err := tc.frame.Encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := DecodeDeltaFrame(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Full != tc.frame.Full || got.BaseGen != tc.frame.BaseGen ||
			got.NewGen != tc.frame.NewGen || got.StateCRC != tc.frame.StateCRC {
			t.Fatalf("%s: header fields drifted: %+v", tc.name, got)
		}
		if len(got.Blocks) != len(tc.frame.Blocks) {
			t.Fatalf("%s: %d blocks, want %d", tc.name, len(got.Blocks), len(tc.frame.Blocks))
		}
		if tc.frame.Full {
			gotSk, _ := got.Snap.Restore(nil)
			wantSk, _ := tc.frame.Snap.Restore(nil)
			if d := wantSk.FirstRegisterDiff(gotSk); d != "" {
				t.Fatalf("full frame registers drifted: %s", d)
			}
		}
	}
}

func TestDeltaFrameSizeComparison(t *testing.T) {
	s := filledSketch(t)
	base := TakeSnapshot(s)
	s.Update(k(42), 1)
	cur := TakeSnapshot(s)
	blocks, _ := DiffSnapshots(base, cur)
	frame := &DeltaFrame{BaseGen: 1, NewGen: 2, StateCRC: cur.StateCRC(), Blocks: blocks}
	data, err := frame.Encode()
	if err != nil {
		t.Fatal(err)
	}
	fullBytes, err := (&DeltaFrame{Full: true, NewGen: 2, StateCRC: cur.StateCRC(), Snap: cur}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(fullBytes), fullFrameLen(cur, len(cur.Regs)); got != want {
		t.Fatalf("fullFrameLen predicted %d, encoded %d", want, got)
	}
	if len(data) >= len(fullBytes) {
		t.Fatalf("one-update delta (%dB) not smaller than full snapshot (%dB)", len(data), len(fullBytes))
	}
}

// TestDeltaProtocolSteadyState drives the full client/server v3 exchange
// against a live generational engine: first read full, changed reads
// delta, unchanged reads the empty delta — each reconstructing registers
// bit-identical to a direct snapshot, with delta wire bytes strictly below
// full-snapshot wire bytes.
func TestDeltaProtocolSteadyState(t *testing.T) {
	eng := buildEngine(t)
	for i := uint64(0); i < 2000; i++ {
		eng.Update(k(i%300), 1+i%5)
	}
	srv, err := NewServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := NewClient(ClientConfig{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	verify := func(step string, snap *Snapshot) {
		t.Helper()
		want := snapshotOf(eng)
		got, err := snap.Restore(hashing.NewBobFamily(42))
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if d := want.FirstRegisterDiff(got); d != "" {
			t.Fatalf("%s: collected registers diverge: %s", step, d)
		}
	}

	// First read: no baseline, must arrive as a full snapshot.
	snap, err := cl.ReadSketch()
	if err != nil {
		t.Fatal(err)
	}
	verify("first", snap)
	if st := cl.Stats(); st.FullSnapshots != 1 || st.DeltasApplied != 0 {
		t.Fatalf("first read stats: %+v", st)
	}
	if fb := srv.Stats().Fallbacks["no_baseline"]; fb != 1 {
		t.Fatalf("no_baseline fallbacks = %d, want 1", fb)
	}

	// Change a little, read again: a delta.
	for i := uint64(0); i < 50; i++ {
		eng.Update(k(5000+i), 2)
	}
	snap, err = cl.ReadSketch()
	if err != nil {
		t.Fatal(err)
	}
	verify("delta", snap)
	if st := cl.Stats(); st.DeltasApplied != 1 {
		t.Fatalf("after changed read: %+v", st)
	}

	// No change: the empty delta (generation fast path).
	snap, err = cl.ReadSketch()
	if err != nil {
		t.Fatal(err)
	}
	verify("empty", snap)
	if st := cl.Stats(); st.DeltasApplied != 2 || st.FullSnapshots != 1 {
		t.Fatalf("after unchanged read: %+v", st)
	}

	// The server bumps its read counter after the response write returns,
	// so the client can hold its third answer before the server has
	// counted it: wait, bounded, for the count before asserting exactly.
	st := srv.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.DeltaReads < 3 && time.Now().Before(deadline); st = srv.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.DeltaReads != 3 {
		t.Fatalf("server delta reads = %d, want 3", st.DeltaReads)
	}
	if st.DeltaWireBytes == 0 || st.FullWireBytes == 0 {
		t.Fatalf("wire byte counters not populated: %+v", st)
	}
	if st.DeltaWireBytes >= st.FullWireBytes {
		t.Fatalf("steady-state delta bytes %d not below full bytes %d",
			st.DeltaWireBytes, st.FullWireBytes)
	}
	if st.Sessions != 1 {
		t.Fatalf("sessions = %d, want 1", st.Sessions)
	}
}

// rawDeltaExchange dials addr and returns a function that sends one raw
// OpReadDelta request for session 7 and decodes the response frame, so a
// test can drive the ack machine without the client's bookkeeping. The
// connection closes with the test.
func rawDeltaExchange(t *testing.T, addr string) func(hasBaseline bool, ackedGen uint64) *DeltaFrame {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck

	return func(hasBaseline bool, ackedGen uint64) *DeltaFrame {
		t.Helper()
		if err := writeFrame(conn, appendReadDelta(nil, 7, hasBaseline, ackedGen)); err != nil {
			t.Fatal(err)
		}
		resp, err := readFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := parseResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := DecodeDeltaFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
}

// TestLockedSketchGeneration pins the generation contract of the
// single-writer source: reads with no write in between report equal
// generations, every write path (Update, Lock/Unlock, Reset) strictly
// advances it, and so an unchanged LockedSketch gets the same empty-delta
// fast path as an engine.
func TestLockedSketchGeneration(t *testing.T) {
	ls := NewLockedSketch(filledSketch(t))
	_, g0 := ls.Snapshot()
	if _, g := ls.Snapshot(); g != g0 {
		t.Fatalf("generation moved from %d to %d with no write", g0, g)
	}
	for _, w := range []struct {
		name  string
		write func()
	}{
		{"Update", func() { ls.Update(k(1), 1) }},
		{"Lock/Unlock", func() { ls.Lock(); ls.Unlock() }},
		{"Reset", ls.Reset},
	} {
		_, before := ls.Snapshot()
		w.write()
		if _, after := ls.Snapshot(); after <= before {
			t.Fatalf("%s: generation %d -> %d, want a strict advance", w.name, before, after)
		}
	}

	ls.Update(k(2), 5)
	srv, err := NewServer("127.0.0.1:0", ls)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	exchange := rawDeltaExchange(t, srv.Addr())
	first := exchange(false, 0)
	if !first.Full {
		t.Fatal("first response was not a full snapshot")
	}
	second := exchange(true, first.NewGen)
	if second.Full || len(second.Blocks) != 0 {
		t.Fatalf("unchanged sketch: full=%v with %d blocks, want an empty delta", second.Full, len(second.Blocks))
	}
	if second.NewGen != first.NewGen {
		t.Fatalf("unchanged sketch: generation %d, want %d", second.NewGen, first.NewGen)
	}
}

// TestDeltaProtocolRetransmit pins the two-baseline ack machine at the
// wire level: a response the client never acked must be re-diffed against
// the old acked baseline, not against what the server last sent.
func TestDeltaProtocolRetransmit(t *testing.T) {
	eng := buildEngine(t)
	eng.Update(k(1), 10)
	srv, err := NewServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	exchange := rawDeltaExchange(t, srv.Addr())
	first := exchange(false, 0)
	if !first.Full {
		t.Fatal("first response was not a full snapshot")
	}
	g1 := first.NewGen

	eng.Update(k(2), 20)
	second := exchange(true, g1)
	if second.Full {
		t.Fatal("changed read after ack did not arrive as a delta")
	}
	if second.BaseGen != g1 {
		t.Fatalf("delta base gen %d, want acked %d", second.BaseGen, g1)
	}

	// Pretend the second response was lost: re-ack g1. The server must
	// retransmit a delta against g1 — its sent-candidate (second.NewGen)
	// was never confirmed and must not have been promoted.
	third := exchange(true, g1)
	if third.Full {
		t.Fatalf("retransmission degraded to full (fallbacks: %v)", srv.Stats().Fallbacks)
	}
	if third.BaseGen != g1 {
		t.Fatalf("retransmitted delta base gen %d, want %d", third.BaseGen, g1)
	}
	applied, err := ApplyDelta(first.Snap, third.Blocks)
	if err != nil {
		t.Fatal(err)
	}
	if applied.StateCRC() != third.StateCRC {
		t.Fatal("retransmitted delta does not reconstruct the pinned state")
	}

	// Now ack the retransmission: the next delta diffs against it.
	eng.Update(k(3), 30)
	fourth := exchange(true, third.NewGen)
	if fourth.Full || fourth.BaseGen != third.NewGen {
		t.Fatalf("post-promotion read: full=%v base=%d, want delta against %d",
			fourth.Full, fourth.BaseGen, third.NewGen)
	}
}

// TestDeltaProtocolSessionEviction: a session evicted by the LRU cap
// degrades to exactly one full snapshot (gen_mismatch) and then resumes
// deltas.
func TestDeltaProtocolSessionEviction(t *testing.T) {
	eng := buildEngine(t)
	eng.Update(k(1), 5)
	srv, err := NewServerConfig("127.0.0.1:0", eng, ServerConfig{MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	newDeltaClient := func(id uint64) *Client {
		cl, err := NewClient(ClientConfig{Addr: srv.Addr(), SessionID: id})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	a, b := newDeltaClient(1), newDeltaClient(2)
	defer a.Close()
	defer b.Close()

	if _, err := a.ReadSketch(); err != nil { // a: full (no_baseline)
		t.Fatal(err)
	}
	if _, err := b.ReadSketch(); err != nil { // b: full, evicts a
		t.Fatal(err)
	}
	eng.Update(k(2), 5)
	if _, err := a.ReadSketch(); err != nil { // a: evicted → gen_mismatch full
		t.Fatal(err)
	}
	if got := srv.Stats().Fallbacks["gen_mismatch"]; got != 1 {
		t.Fatalf("gen_mismatch fallbacks = %d, want 1 (all: %v)", got, srv.Stats().Fallbacks)
	}
	eng.Update(k(3), 5)
	if _, err := a.ReadSketch(); err != nil { // a: baseline re-seeded → delta
		t.Fatal(err)
	}
	if st := a.Stats(); st.DeltasApplied != 1 || st.FullSnapshots != 2 {
		t.Fatalf("client a stats after eviction cycle: %+v", st)
	}
}

// TestDeltaProtocolInjectedGenerationLoss: InvalidateDeltaState simulates
// a lost ack — the next read declares no baseline and the server's
// fallback counter records it.
func TestDeltaProtocolInjectedGenerationLoss(t *testing.T) {
	eng := buildEngine(t)
	eng.Update(k(1), 5)
	srv, err := NewServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := NewClient(ClientConfig{Addr: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.ReadSketch(); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats().Fallbacks["no_baseline"]
	cl.InvalidateDeltaState()
	snap, err := cl.ReadSketch()
	if err != nil {
		t.Fatal(err)
	}
	if after := srv.Stats().Fallbacks["no_baseline"]; after != before+1 {
		t.Fatalf("no_baseline fallbacks %d → %d, want +1", before, after)
	}
	if st := cl.Stats(); st.FullSnapshots != 2 {
		t.Fatalf("client stats after injected loss: %+v", st)
	}
	want := snapshotOf(eng)
	got, err := snap.Restore(hashing.NewBobFamily(42))
	if err != nil {
		t.Fatal(err)
	}
	if d := want.FirstRegisterDiff(got); d != "" {
		t.Fatalf("post-loss snapshot diverges: %s", d)
	}
}

// TestDeltaClientAgainstLegacyServer: a server that predates codec v3
// rejects OpReadDelta, and the client surfaces that rejection as a
// non-retriable *ServerError after one attempt instead of switching
// protocols.
func TestDeltaClientAgainstLegacyServer(t *testing.T) {
	// A minimal v2-era server: it does not know OpReadDelta, so it answers
	// with the "unknown opcode" error and closes — exactly the legacy
	// serve loop's behavior.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var requests atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				req, err := readFrame(conn)
				if err != nil || len(req) == 0 {
					return
				}
				requests.Add(1)
				writeFrame(conn, append([]byte{statusErr}, fmt.Sprintf("unknown opcode %d", req[0])...)) //nolint:errcheck
			}(conn)
		}
	}()

	t.Run("delta", func(t *testing.T) {
		cl, err := NewClient(ClientConfig{Addr: ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		_, err = cl.ReadSketch()
		var se *ServerError
		if !errors.As(err, &se) {
			t.Fatalf("delta read against a v2 server: err = %v, want a *ServerError", err)
		}
		if !strings.Contains(se.Msg, "opcode 3") {
			t.Fatalf("server error %q does not name opcode 3", se.Msg)
		}
		if n := requests.Load(); n != 1 {
			t.Fatalf("server saw %d requests, want exactly 1 attempt", n)
		}
		if st := cl.Stats(); st.Retries != 0 || st.DeltasApplied != 0 || st.FullSnapshots != 0 || st.DeltaFallbacks != 0 {
			t.Fatalf("counters moved on a rejected delta read: %+v", st)
		}
	})
}

// TestClientJoinsAttemptErrors: the satellite errors.Join contract — an
// exhausted retry loop reports every attempt, not just the last.
func TestClientJoinsAttemptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens: every dial fails
	cl, err := NewClient(ClientConfig{
		Addr:        addr,
		DialTimeout: 200 * time.Millisecond,
		MaxRetries:  2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.ReadSketch()
	if err == nil {
		t.Fatal("read against a dead address succeeded")
	}
	for _, want := range []string{"attempt 1:", "attempt 2:", "attempt 3:"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not report %q:\n%v", want, err)
		}
	}
}

// TestServerRejectsConnsOverCap: the satellite MaxConns contract — excess
// connections are counted and closed, not silently stalled.
func TestServerRejectsConnsOverCap(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", NewLockedSketch(filledSketch(t)), ServerConfig{
		MaxConns: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	first, err := NewClient(ClientConfig{Addr: srv.Addr(), DialTimeout: time.Second, IOTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := first.ReadSketch(); err != nil {
		t.Fatal(err)
	}

	second, err := NewClient(ClientConfig{Addr: srv.Addr(), IOTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.ReadSketch(); err == nil {
		t.Fatal("second connection served beyond MaxConns=1")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Stats().RejectedConns == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("rejected connection was never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A rejection is not a served connection.
	if st := srv.Stats(); st.Conns != 1 {
		t.Fatalf("served conns = %d, want 1 (rejections must not count)", st.Conns)
	}
}

// TestAggregatorMergeMatchesFlat: a one-aggregator tree over three
// switches re-exports registers bit-identical to a flat merge of the
// three, and ignores resets.
func TestAggregatorMergeMatchesFlat(t *testing.T) {
	fam := hashing.NewBobFamily(42)
	var servers []*Server
	var members []PollerConfig
	var leaves []*core.Sketch
	for i := 0; i < 3; i++ {
		sk := filledSketch(t)
		for j := uint64(0); j < 200; j++ {
			sk.Update(k(uint64(i)*1000+j), j%7+1)
		}
		leaves = append(leaves, sk)
		srv, err := NewServer("127.0.0.1:0", NewLockedSketch(sk))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		members = append(members, PollerConfig{Addr: srv.Addr()})
	}
	agg, err := NewAggregator(AggregatorConfig{
		Members:  members,
		Interval: 20 * time.Millisecond,
		Family:   fam,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Start(); err != nil {
		t.Fatal(err)
	}
	defer agg.Stop()

	deadline := time.Now().Add(10 * time.Second)
	for agg.Stats().MembersReporting < 3 {
		if !time.Now().Before(deadline) {
			t.Fatalf("members reporting = %d after 10s", agg.Stats().MembersReporting)
		}
		time.Sleep(5 * time.Millisecond)
	}

	merged := snapshotOf(agg)
	if merged == nil {
		t.Fatal("aggregator exported nil after all members reported")
	}
	flat := leaves[0].Clone()
	for _, sk := range leaves[1:] {
		if err := flat.Merge(sk); err != nil {
			t.Fatal(err)
		}
	}
	if d := flat.FirstRegisterDiff(merged); d != "" {
		t.Fatalf("aggregated merge diverges from flat merge: %s", d)
	}

	agg.Reset()
	if got := agg.Stats().ResetRequests; got != 1 {
		t.Fatalf("reset requests = %d, want 1 (ignored, counted)", got)
	}
	if d := flat.FirstRegisterDiff(snapshotOf(agg)); d != "" {
		t.Fatalf("reset mutated the aggregate: %s", d)
	}
}

// TestSchedulerStagger: N pollers sharing one interval get distinct,
// increasing initial delays spread across the interval, and a shared gate.
func TestSchedulerStagger(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0", NewLockedSketch(filledSketch(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	onSnap := func(*Snapshot) {}
	var members []PollerConfig
	for i := 0; i < 8; i++ {
		members = append(members, PollerConfig{Addr: srv.Addr(), OnSnapshot: onSnap})
	}
	interval := 800 * time.Millisecond
	sched, err := NewScheduler(SchedulerConfig{Interval: interval, MaxInFlight: 2, JitterSeed: 7}, members)
	if err != nil {
		t.Fatal(err)
	}
	slot := interval / 8
	var prev time.Duration
	for i, p := range sched.Pollers() {
		d := p.cfg.InitialDelay
		if d <= 0 {
			t.Fatalf("poller %d has no initial delay", i)
		}
		lo, hi := time.Duration(i)*slot, time.Duration(i+2)*slot
		if d <= lo || d > hi {
			t.Errorf("poller %d delay %v outside slot (%v, %v]", i, d, lo, hi)
		}
		if i > 0 && d <= prev {
			t.Errorf("poller %d delay %v not after poller %d's %v", i, d, i-1, prev)
		}
		prev = d
		if p.cfg.Gate != sched.Gate() {
			t.Errorf("poller %d does not share the scheduler gate", i)
		}
	}
}

func TestGate(t *testing.T) {
	g := NewGate(1)
	ctx := t.Context()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if got := g.InFlight(); got != 1 {
		t.Fatalf("in flight = %d, want 1", got)
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if err := g.Acquire(cctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full gate acquire: %v, want deadline exceeded", err)
	}
	g.Release()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	g.Release()
}

// TestDiffKernelEveryMask drives the diff kernel and the in-place apply
// through every field mask of every counter size: a stage whose words
// change exactly the fields of mask 0, 1, 2, … in turn, over three groups
// and more (so both the word-at-a-time and the counter-at-a-time apply
// see each mask), ending in a partial word, cut into 1, 2 and 3 ranges. The body must carry each nonzero mask and
// the changed values in field order, list exactly the changed counters,
// and apply over the base to the current stage.
func TestDiffKernelEveryMask(t *testing.T) {
	rng := rand.New(rand.NewSource(0x6d61736b))
	for _, size := range []int{1, 2, 4} {
		fields := 8 / size
		masks := 1 << fields
		// At least two passes over the masks and three groups of words,
		// then a partial last word.
		n := max(2, 3*64/masks)*masks*8 + size
		a := make([]byte, n)
		rng.Read(a)
		b := bytes.Clone(a)
		type change struct {
			i int
			v uint32
		}
		var changes []change
		for w := 0; w*8 < n; w++ {
			m := w % masks
			for f := 0; f < fields && w*8+f*size < n; f++ {
				if m>>f&1 == 0 {
					continue
				}
				at := w*8 + f*size
				for {
					for j := 0; j < size; j++ {
						b[at+j] = a[at+j] ^ byte(rng.Intn(256))
					}
					if !bytes.Equal(a[at:at+size], b[at:at+size]) {
						break
					}
				}
				var v uint32
				for j := size - 1; j >= 0; j-- {
					v = v<<8 | uint32(b[at+j])
				}
				changes = append(changes, change{at / size, v})
			}
		}
		if n%8 != 0 {
			// The partial word holds one counter: let it change too.
			b[n-size] ^= 1
			var v uint32
			for j := size - 1; j >= 0; j-- {
				v = v<<8 | uint32(b[n-size+j])
			}
			changes = append(changes, change{(n - size) / size, v})
		}
		for _, parts := range []int{1, 2, 3} {
			restore := SetDiffParts(parts)
			var d bodyDiff
			var blocks []DeltaBlock
			_, nb, _ := d.appendDiff(nil, []stagePair{{size: size, a: a, b: b}}, &blocks, false, nil)
			restore()
			if nb != 1 || len(blocks) != 1 {
				t.Fatalf("size %d, %d parts: %d blocks", size, parts, nb)
			}
			blk := blocks[0]
			var got []change
			if err := blk.Each(func(i int, v uint32) { got = append(got, change{i, v}) }); err != nil {
				t.Fatalf("size %d, %d parts: %v", size, parts, err)
			}
			if !slices.Equal(got, changes) {
				t.Fatalf("size %d, %d parts: the block lists %d changes, %d made", size, parts, len(got), len(changes))
			}
			lay, err := blk.layout()
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < lay.vals-lay.masks; k++ {
				if m := int(blk.Body[lay.masks+k]); m == 0 || m >= masks {
					t.Fatalf("size %d: mask %d is 0x%02x", size, k, m)
				}
			}
			stage := bytes.Clone(a)
			if err := blk.walk(lay, stage, nil); err != nil {
				t.Fatalf("size %d, %d parts: %v", size, parts, err)
			}
			if !bytes.Equal(stage, b) {
				t.Fatalf("size %d, %d parts: applying the block does not rebuild the stage", size, parts)
			}
		}
	}
}

// TestBoundedDiffSlots pins the served diff's bounded value slots. While
// a range's changed values stay well under half its bytes, the bounded
// body is the unbounded one, byte for byte, in a smaller buffer; past
// half, the diff fails and hands dst back as it was. A stage of one group
// has room for every value even when bounded.
func TestBoundedDiffSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(0x626f756e))
	const n = 8 * groupBytes
	for _, size := range []int{1, 2, 4} {
		for _, tc := range []struct {
			frac float64
			ok   bool
		}{{0.25, true}, {0.7, false}} {
			a := make([]byte, n)
			rng.Read(a)
			b := bytes.Clone(a)
			for i := 0; i < n; i += size {
				if rng.Float64() < tc.frac {
					b[i] ^= 1
				}
			}
			for _, parts := range []int{1, 2} {
				restore := SetDiffParts(parts)
				var d bodyDiff
				pairs := []stagePair{{size: size, a: a, b: b}}
				want, _, _ := d.appendDiff([]byte("head"), pairs, nil, false, nil)
				got, _, ok := d.appendDiff([]byte("head"), pairs, nil, true, nil)
				restore()
				switch {
				case ok != tc.ok:
					t.Fatalf("size %d, %.2f changed, %d parts: bounded diff ok=%v, want %v", size, tc.frac, parts, ok, tc.ok)
				case ok && !bytes.Equal(got, want):
					t.Fatalf("size %d, %.2f changed, %d parts: bounded body differs from the unbounded one", size, tc.frac, parts)
				case ok && cap(got) >= cap(want):
					t.Fatalf("size %d, %d parts: bounded slots take %dB, unbounded %d", size, parts, cap(got), cap(want))
				case !ok && string(got) != "head":
					t.Fatalf("size %d, %d parts: a failed diff left %q", size, parts, got)
				}
			}
		}
	}
	a, b := make([]byte, groupBytes), bytes.Repeat([]byte{1}, groupBytes)
	var d bodyDiff
	if _, nb, ok := d.appendDiff(nil, []stagePair{{size: 1, a: a, b: b}}, nil, true, nil); !ok || nb != 1 {
		t.Fatalf("one changed group, bounded: ok=%v, %d blocks", ok, nb)
	}
}

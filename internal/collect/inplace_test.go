package collect

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rewritingProxy relays collection frames between clients and addr. A
// rewrite armed with arm is applied to the next successful response only:
// the frame is decoded, handed to the rewrite, and re-encoded, so the
// client receives a frame whose CRC is valid again and whose corruption
// surfaces only when it is applied.
type rewritingProxy struct {
	ln      net.Listener
	up      string
	pending atomic.Pointer[func(*DeltaFrame) error]
	errs    chan error
}

func newRewritingProxy(t *testing.T, addr string) *rewritingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &rewritingProxy{ln: ln, up: addr, errs: make(chan error, 16)}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			go p.relay(down)
		}
	}()
	return p
}

func (p *rewritingProxy) addr() string { return p.ln.Addr().String() }

// arm makes fn rewrite the next successful response.
func (p *rewritingProxy) arm(fn func(*DeltaFrame) error) { p.pending.Store(&fn) }

// err returns the first rewrite failure, if any.
func (p *rewritingProxy) err() error {
	select {
	case err := <-p.errs:
		return err
	default:
		return nil
	}
}

func (p *rewritingProxy) relay(down net.Conn) {
	defer down.Close()
	up, err := net.DialTimeout("tcp", p.up, 5*time.Second)
	if err != nil {
		return
	}
	defer up.Close()
	for {
		req, err := readFrame(down)
		if err != nil {
			return
		}
		if writeFrame(up, req) != nil {
			return
		}
		resp, err := readFrame(up)
		if err != nil {
			return
		}
		if len(resp) > 0 && resp[0] == statusOK {
			if fn := p.pending.Swap(nil); fn != nil {
				if resp, err = rewriteResponse(resp, *fn); err != nil {
					p.errs <- err
					return
				}
			}
		}
		if writeFrame(down, resp) != nil {
			return
		}
	}
}

func rewriteResponse(resp []byte, fn func(*DeltaFrame) error) ([]byte, error) {
	f, err := DecodeDeltaFrame(resp[1:])
	if err != nil {
		return nil, err
	}
	if err := fn(f); err != nil {
		return nil, err
	}
	return f.AppendEncode([]byte{statusOK})
}

// TestDeltaApplyInPlaceFailures drives the client's in-place apply through
// both ways a delta that decodes cleanly can still be wrong: an
// out-of-range index in its last block (the blocks before it are already
// scattered into the baseline) and a wrong pinned state CRC. Each must drop
// the baseline, and the next read must be a full snapshot bit-identical to
// the server's registers. It also pins that a snapshot ReadSketch returns
// shares nothing with the baseline: scribbling over it leaves the next
// delta correct.
func TestDeltaApplyInPlaceFailures(t *testing.T) {
	eng := buildEngine(t)
	for i := uint64(0); i < 500; i++ {
		eng.Update(k(i), 1+i%3)
	}
	srv, err := NewServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	proxy := newRewritingProxy(t, srv.Addr())
	cl, err := NewClient(ClientConfig{Addr: proxy.addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	round := uint64(0)
	churn := func() {
		round++
		for i := uint64(0); i < 20; i++ {
			eng.Update(k(round*1000+i), 1)
		}
	}
	read := func(step string, wantFull bool) {
		t.Helper()
		before := cl.Stats()
		snap, err := cl.ReadSketch()
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if want := TakeSnapshot(snapshotOf(eng)); !bytes.Equal(snap.Regs, want.Regs) {
			t.Fatalf("%s: read registers differ from the server's", step)
		}
		after := cl.Stats()
		if full := after.FullSnapshots - before.FullSnapshots; full != map[bool]uint64{false: 0, true: 1}[wantFull] {
			t.Fatalf("%s: %d full snapshots, want full=%v (stats %+v)", step, full, wantFull, after)
		}
		if !wantFull && after.DeltasApplied != before.DeltasApplied+1 {
			t.Fatalf("%s: no delta applied (stats %+v)", step, after)
		}
		// The returned snapshot is the caller's: scribbling over it must
		// not reach the baseline the next delta applies to.
		for i := range snap.Regs {
			snap.Regs[i] ^= 0xa5
		}
	}
	corrupted := func(step string, fn func(*DeltaFrame) error) {
		t.Helper()
		churn()
		proxy.arm(fn)
		before := cl.Stats()
		if _, err := cl.ReadSketch(); err == nil {
			t.Fatalf("%s: corrupted delta applied without error", step)
		}
		if err := proxy.err(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := cl.Stats().DeltaFallbacks; got != before.DeltaFallbacks+1 {
			t.Fatalf("%s: %d baseline invalidations, want %d", step, got, before.DeltaFallbacks+1)
		}
		cl.mu.Lock()
		have, base := cl.haveBaseline, cl.baseline
		cl.mu.Unlock()
		if have || base != nil {
			t.Fatalf("%s: client kept its baseline", step)
		}
		read(step+": recovery", true)
	}

	read("first", true)
	churn()
	read("delta", false)
	churn()
	read("delta after scribbling", false)

	corrupted("out-of-range index in the last block", func(f *DeltaFrame) error {
		if f.Full || len(f.Blocks) < 2 {
			return fmt.Errorf("want a delta of at least two blocks, got full=%v with %d", f.Full, len(f.Blocks))
		}
		last := &f.Blocks[len(f.Blocks)-1]
		last.Indexes[len(last.Indexes)-1] = 1 << 30
		return nil
	})
	churn()
	read("delta after index recovery", false)

	corrupted("wrong state CRC", func(f *DeltaFrame) error {
		if f.Full {
			return fmt.Errorf("want a delta, got a full frame")
		}
		f.StateCRC ^= 0x5a5a5a5a
		return nil
	})
	churn()
	read("delta after CRC recovery", false)
}

// TestDeltaSessionRecycling races two connections that share one session
// ID, one of which loses every third response and retransmits its ack.
// Every response must decode and rebuild the server's registers exactly,
// and the session's recycled snapshot buffers must never be its acked or
// sent snapshot: at every quiescent point the two are distinct buffers,
// and no request allocates a third.
func TestDeltaSessionRecycling(t *testing.T) {
	const sessionID, rounds = 11, 300
	eng := buildEngine(t)
	srv, err := NewServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// peer is one connection's view: the registers of every generation it
	// received, and the one it declares as its baseline.
	type peer struct {
		conn    net.Conn
		held    map[uint64][]byte
		gen     uint64
		hasBase bool
		lossy   bool
	}
	peers := make([]*peer, 2)
	for i := range peers {
		conn, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(time.Minute)) //nolint:errcheck
		peers[i] = &peer{conn: conn, held: map[uint64][]byte{}, lossy: i == 1}
	}
	tmpl := TakeSnapshot(snapshotOf(eng)) // the geometry deltas apply in
	var deltas atomic.Int64
	exchange := func(p *peer, r int, want []byte) error {
		if err := writeFrame(p.conn, encodeReadDelta(sessionID, p.hasBase, p.gen)); err != nil {
			return err
		}
		resp, err := readFrame(p.conn)
		if err != nil {
			return err
		}
		payload, err := parseResponse(resp)
		if err != nil {
			return err
		}
		f, err := DecodeDeltaFrame(payload)
		if err != nil {
			return err
		}
		var regs []byte
		if f.Full {
			regs = f.Snap.Regs
		} else {
			base, ok := p.held[f.BaseGen]
			if !ok {
				return fmt.Errorf("delta against generation %d, which this peer never held", f.BaseGen)
			}
			snap := *tmpl
			snap.Regs = bytes.Clone(base)
			if err := snap.applyBlocks(f.Blocks); err != nil {
				return err
			}
			if snap.StateCRC() != f.StateCRC {
				return fmt.Errorf("delta against generation %d misses its state CRC", f.BaseGen)
			}
			regs = snap.Regs
			deltas.Add(1)
		}
		if !bytes.Equal(regs, want) {
			return fmt.Errorf("full=%v response rebuilds registers other than the server's", f.Full)
		}
		p.held[f.NewGen] = regs
		if p.lossy && r%3 == 2 {
			return nil // lost in flight: keep acking the old generation
		}
		p.gen, p.hasBase = f.NewGen, true
		return nil
	}

	sess := srv.sessions.lookup(sessionID)
	buffers := map[*byte]bool{}
	for r := 0; r < rounds; r++ {
		for i := 0; i < 10; i++ {
			eng.Update(k(uint64(r*1000+i)), 1)
		}
		want := TakeSnapshot(snapshotOf(eng)).Regs
		// Even rounds race the peers; odd rounds run them one after the
		// other, in an order that alternates, so every ack and loss pattern
		// also occurs in a fixed sequence.
		errs := make([]error, len(peers))
		if r%2 == 0 {
			var wg sync.WaitGroup
			for i, p := range peers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = exchange(p, r, want)
				}()
			}
			wg.Wait()
		} else {
			first := r / 2 % 2
			errs[first] = exchange(peers[first], r, want)
			errs[1-first] = exchange(peers[1-first], r, want)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, peer %d: %v", r, i, err)
			}
		}
		sess.mu.Lock()
		acked, sent := sess.acked, sess.sent
		sess.mu.Unlock()
		for _, s := range []*Snapshot{acked, sent} {
			if s != nil {
				buffers[&s.Regs[0]] = true
			}
		}
		if acked != nil && sent != nil && &acked.Regs[0] == &sent.Regs[0] {
			t.Fatalf("round %d: the session's acked and sent snapshots share one buffer", r)
		}
	}
	if len(buffers) > 2 {
		t.Fatalf("the session held %d register buffers over %d rounds, want at most 2", len(buffers), rounds)
	}
	if deltas.Load() == 0 {
		t.Fatal("no response was a delta: the race never reached the recycling diff path")
	}
}

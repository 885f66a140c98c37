package collect

import (
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/faultnet"
	"github.com/fcmsketch/fcm/internal/hashing"
)

// chaosSeed pins every fault draw in this file; ci.sh exports it so the
// chaos run is reproducible by construction.
const chaosSeed = 42

// serveChaos starts a collection server behind a fault injector, with
// short timeouts so injected stalls cost milliseconds, not minutes.
func serveChaos(t *testing.T, src Source, inj *faultnet.Injector) *Server {
	t.Helper()
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(faultnet.Listen(raw, inj), src, ServerConfig{
		ReadTimeout:  250 * time.Millisecond,
		WriteTimeout: 250 * time.Millisecond,
		IdleTimeout:  2 * time.Second,
	})
	return srv
}

// checkNoGoroutineLeak polls until the goroutine count returns to the
// baseline (plus slack for runtime helpers), else dumps stacks.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d > baseline %d\n%s",
		runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
}

// TestChaosThreeSwitchConvergence drives a 3-switch collection run —
// the examples/distributed topology — through injected connection
// refusals, mid-frame resets, latency, short writes, byte corruption and
// black holes, then heals the network and requires:
//
//   - pollers transition Healthy→Degraded(→Down) and back to Healthy,
//   - skipped windows are reported, never silently merged,
//   - the post-recovery merged estimate is register-bit-identical to a
//     fault-free run over the same trace,
//   - nothing leaks a goroutine.
func TestChaosThreeSwitchConvergence(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fam := hashing.NewBobFamily(42)
	newSketch := func() *core.Sketch {
		s, err := core.New(core.Config{
			K: 4, Trees: 2, LeafWidth: 256, Widths: []int{8, 16, 32}, Hash: fam,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	// One deterministic trace split across three switches.
	const switches, packets = 3, 30000
	sketches := make([]*core.Sketch, switches)
	for i := range sketches {
		sketches[i] = newSketch()
	}
	for i := uint64(0); i < packets; i++ {
		sketches[i%switches].Update(k(i%997), 1+i%4)
	}

	// Fault-free reference: direct snapshots merged into one sketch.
	reference := newSketch()
	for _, s := range sketches {
		direct, err := TakeSnapshot(s).Restore(fam)
		if err != nil {
			t.Fatal(err)
		}
		if err := reference.Merge(direct); err != nil {
			t.Fatal(err)
		}
	}

	// Chaos run: every fault class at once, deterministic per switch.
	type pollerState struct {
		mu          sync.Mutex
		lastSnap    *Snapshot
		collected   int
		skippedSeen int
		transitions []string
	}
	injectors := make([]*faultnet.Injector, switches)
	servers := make([]*Server, switches)
	pollers := make([]*Poller, switches)
	states := make([]*pollerState, switches)
	for i := 0; i < switches; i++ {
		injectors[i] = faultnet.New(faultnet.Config{
			Seed:          chaosSeed + int64(i),
			RefuseProb:    0.2,
			BlackholeProb: 0.1,
			ResetProb:     0.4,
			ResetAfterMax: 2048,
			CorruptProb:   0.3,
			MaxLatency:    3 * time.Millisecond,
			MaxWriteChunk: 7,
		})
		servers[i] = serveChaos(t, NewLockedSketch(sketches[i]), injectors[i])
		st := &pollerState{}
		states[i] = st
		p, err := NewPoller(PollerConfig{
			Addr:          servers[i].Addr(),
			Interval:      20 * time.Millisecond,
			Timeout:       150 * time.Millisecond,
			Retries:       1,
			DegradedAfter: 1,
			DownAfter:     4,
			OnWindow: func(snap *Snapshot, skipped int) {
				st.mu.Lock()
				st.lastSnap = snap
				st.collected++
				st.skippedSeen += skipped
				st.mu.Unlock()
			},
			OnStateChange: func(from, to State) {
				st.mu.Lock()
				st.transitions = append(st.transitions, from.String()+"->"+to.String())
				st.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pollers[i] = p
		if err := p.Start(); err != nil {
			t.Fatal(err)
		}
	}

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if !time.Now().Before(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Phase 1 — mixed faults: every poller must still manage deliveries
	// (possibly through retries) while resets, corruption, latency and
	// short writes fly.
	waitFor(func() bool {
		for _, p := range pollers {
			if p.Stats().Collected == 0 {
				return false
			}
		}
		return true
	}, "every poller to deliver under mixed faults")

	// Phase 2 — total outage: refuse everything new and cut every live
	// connection. Every poller must notice and degrade.
	for i, inj := range injectors {
		inj.SetConfig(faultnet.Config{Seed: chaosSeed + int64(i), RefuseProb: 1})
		inj.Cut()
	}
	waitFor(func() bool {
		for _, p := range pollers {
			if s := p.Stats(); s.Failed == 0 || s.State == Healthy {
				return false
			}
		}
		return true
	}, "every poller to degrade during the outage")

	// Phase 3 — heal: pollers must converge back to Healthy and deliver
	// clean post-heal snapshots.
	for _, inj := range injectors {
		inj.Heal()
	}
	collectedAtHeal := make([]uint64, switches)
	for i, p := range pollers {
		collectedAtHeal[i] = p.Stats().Collected
	}
	waitFor(func() bool {
		for i, p := range pollers {
			s := p.Stats()
			if s.State != Healthy || s.Collected < collectedAtHeal[i]+3 {
				return false
			}
		}
		return true
	}, "pollers to return to Healthy after healing")

	for _, p := range pollers {
		p.Stop()
	}

	// Health-state and window accounting assertions.
	totalSkipped := 0
	sawDegraded, sawRecovered := false, false
	for i, st := range states {
		st.mu.Lock()
		stats := pollers[i].Stats()
		if st.skippedSeen != int(stats.SkippedWindows) {
			t.Errorf("switch %d: OnWindow reported %d skipped, stats say %d — windows merged silently",
				i, st.skippedSeen, stats.SkippedWindows)
		}
		totalSkipped += st.skippedSeen
		for _, tr := range st.transitions {
			if strings.HasPrefix(tr, "healthy->") {
				sawDegraded = true
			}
			if strings.HasSuffix(tr, "->healthy") {
				sawRecovered = true
			}
		}
		st.mu.Unlock()
	}
	if totalSkipped == 0 {
		t.Error("chaos run skipped no windows — faults did not bite")
	}
	if !sawDegraded || !sawRecovered {
		t.Errorf("missing health transitions (degraded=%v recovered=%v)", sawDegraded, sawRecovered)
	}
	for i, inj := range injectors {
		s := inj.Stats()
		if s.Refused+s.Blackhole+s.Resets+s.Corrupted == 0 {
			t.Errorf("switch %d injector fired no faults: %+v", i, s)
		}
	}

	// Post-recovery convergence: merging the last delivered snapshots is
	// register-bit-identical to the fault-free reference.
	merged := newSketch()
	for i, st := range states {
		st.mu.Lock()
		snap := st.lastSnap
		st.mu.Unlock()
		if snap == nil {
			t.Fatalf("switch %d delivered no snapshot", i)
		}
		restored, err := snap.Restore(fam)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(restored); err != nil {
			t.Fatal(err)
		}
	}
	if d := merged.FirstRegisterDiff(reference); d != "" {
		t.Errorf("post-recovery merged registers differ from fault-free run: %s", d)
	}

	for _, srv := range servers {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestPollerStopPromptUnderBlackhole pins the Stop liveness contract: a
// black-holed switch must not delay Stop by the poll interval or the full
// I/O timeout — cancellation yanks the in-flight read.
func TestPollerStopPromptUnderBlackhole(t *testing.T) {
	baseline := runtime.NumGoroutine()
	inj := faultnet.New(faultnet.Config{Seed: chaosSeed, BlackholeProb: 1})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(faultnet.Listen(raw, inj), NewLockedSketch(filledSketch(t)), ServerConfig{})
	defer srv.Close()

	var errs atomic.Int32
	p, err := NewPoller(PollerConfig{
		Addr:     srv.Addr(),
		Interval: 30 * time.Millisecond,
		// Deliberately enormous: Stop must NOT wait this out.
		Timeout:    time.Hour,
		OnSnapshot: func(*Snapshot) { t.Error("snapshot through a black hole") },
		OnError:    func(error) { errs.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until a collection is in flight (blocked inside the black
	// hole), then demand a prompt Stop.
	time.Sleep(100 * time.Millisecond)
	start := time.Now()
	p.Stop()
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Stop took %v against a black-holed switch", d)
	}
	checkNoGoroutineLeak(t, baseline)
}

// flakyListener fails its first n Accept calls, then delegates.
type flakyListener struct {
	net.Listener
	failures int32
	calls    atomic.Int32
}

type tempError struct{}

func (tempError) Error() string   { return "synthetic transient accept failure" }
func (tempError) Timeout() bool   { return false }
func (tempError) Temporary() bool { return true }

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.calls.Add(1) <= l.failures {
		return nil, tempError{}
	}
	return l.Listener.Accept()
}

// TestAcceptLoopBackoffRecovers: transient accept failures back off and
// the server keeps serving afterwards.
func TestAcceptLoopBackoffRecovers(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: raw, failures: 4}
	srv := Serve(fl, NewLockedSketch(filledSketch(t)), ServerConfig{})
	defer srv.Close()

	cl, err := NewClient(ClientConfig{Addr: srv.Addr(), IOTimeout: 2 * time.Second, MaxRetries: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.ReadSketch(); err != nil {
		t.Fatalf("server never recovered from transient accept errors: %v", err)
	}
	if got := srv.Stats().AcceptRetries; got != 4 {
		t.Errorf("accept retries %d, want 4", got)
	}
}

// alwaysFailListener persistently errors, as under fd exhaustion.
type alwaysFailListener struct {
	net.Listener
	calls  atomic.Int32
	closed atomic.Bool
}

func (l *alwaysFailListener) Accept() (net.Conn, error) {
	if l.closed.Load() {
		return nil, net.ErrClosed
	}
	l.calls.Add(1)
	return nil, tempError{}
}

func (l *alwaysFailListener) Close() error {
	l.closed.Store(true)
	return l.Listener.Close()
}

// TestAcceptLoopNoBusySpin: a persistently failing Accept must poll at
// backoff pace, not spin, and Close must still return promptly.
func TestAcceptLoopNoBusySpin(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &alwaysFailListener{Listener: raw}
	srv := Serve(fl, NewLockedSketch(filledSketch(t)), ServerConfig{})

	time.Sleep(300 * time.Millisecond)
	calls := fl.calls.Load()
	// Backoff 5ms→1s means ~10 calls in 300ms; a busy spin would be
	// millions. Leave generous slack for slow machines.
	if calls > 100 {
		t.Errorf("accept loop spun %d times in 300ms — backoff not applied", calls)
	}
	if calls == 0 {
		t.Error("accept loop never retried")
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("Close blocked %v behind accept backoff", d)
	}
}

// TestServerMaxConns: the connection cap leaves excess peers unserved
// (queued in the backlog) until a slot frees, instead of spawning
// unbounded handlers.
func TestServerMaxConns(t *testing.T) {
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
	if _, err := first.ReadSketch(); err != nil {
		t.Fatal(err)
	}

	// Second client dials fine (kernel backlog) but is not served while
	// the slot is held.
	second, err := NewClient(ClientConfig{Addr: srv.Addr(), IOTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if _, err := second.ReadSketch(); err == nil {
		t.Fatal("second connection served beyond MaxConns=1")
	}

	// Freeing the slot lets the next connection through.
	first.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := second.ReadSketch(); err == nil {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatal("second connection never served after slot freed")
		}
	}
}

// TestServerIdleTimeout: a connection that sends nothing is torn down.
func TestServerIdleTimeout(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", NewLockedSketch(filledSketch(t)), ServerConfig{
		IdleTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection kept open")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("idle teardown took %v, want ~60ms", d)
	}
}

// TestServerCloseUnblocksStalledPeer: Close must not wait for a peer that
// opened a connection and walked away mid-frame.
func TestServerCloseUnblocksStalledPeer(t *testing.T) {
	srv, err := NewServerConfig("127.0.0.1:0", NewLockedSketch(filledSketch(t)), ServerConfig{
		IdleTimeout: time.Hour, // the stall must be broken by Close, not the deadline
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a frame header, then silence.
	if _, err := conn.Write([]byte{0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Errorf("Close blocked %v behind a stalled peer", d)
	}
}

// TestClientRetriesThroughFaults: with retry budget, a read rides through
// deterministic resets/refusals and reports the recovery in its stats.
func TestClientRetriesThroughFaults(t *testing.T) {
	inj := faultnet.New(faultnet.Config{
		Seed:          chaosSeed,
		RefuseProb:    0.4,
		ResetProb:     0.5,
		ResetAfterMax: 512,
	})
	srv := serveChaos(t, NewLockedSketch(filledSketch(t)), inj)
	defer srv.Close()

	cl, err := NewClient(ClientConfig{
		Addr:        srv.Addr(),
		IOTimeout:   300 * time.Millisecond,
		MaxRetries:  20,
		BackoffBase: time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		JitterSeed:  chaosSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	snap, err := cl.ReadSketch()
	if err != nil {
		t.Fatalf("read never succeeded through faults: %v", err)
	}
	if snap.Trees != 2 {
		t.Fatalf("snapshot geometry %+v", snap)
	}
	st := cl.Stats()
	if st.Retries == 0 && inj.Stats().Refused+inj.Stats().Resets > 0 {
		t.Log("first attempt happened to succeed; faults never hit this client")
	}
	// The reset path must never be silently retried.
	if cl.cfg.MaxRetries != 20 {
		t.Fatalf("config mangled: %+v", cl.cfg)
	}
}

// TestPollerSkippedWindowReporting: refusals make the poller skip
// windows; after healing, the next delivery reports exactly how many
// were skipped, and the state machine walks Healthy→Degraded→Down→Healthy.
func TestPollerSkippedWindowReporting(t *testing.T) {
	inj := faultnet.New(faultnet.Config{Seed: chaosSeed, RefuseProb: 1})
	srv := serveChaos(t, NewLockedSketch(filledSketch(t)), inj)
	defer srv.Close()

	var mu sync.Mutex
	var skippedReports []int
	var transitions []string
	p, err := NewPoller(PollerConfig{
		Addr:          srv.Addr(),
		Interval:      15 * time.Millisecond,
		Timeout:       100 * time.Millisecond,
		DegradedAfter: 1,
		DownAfter:     3,
		OnWindow: func(_ *Snapshot, skipped int) {
			mu.Lock()
			skippedReports = append(skippedReports, skipped)
			mu.Unlock()
		},
		OnStateChange: func(from, to State) {
			mu.Lock()
			transitions = append(transitions, from.String()+"->"+to.String())
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}

	// Let it fail past the Down threshold, then heal.
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().State != Down && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if p.Stats().State != Down {
		t.Fatal("poller never reached Down under total refusal")
	}
	failedAtHeal := p.Stats().Failed
	inj.Heal()
	for p.Stats().Collected == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	p.Stop()

	stats := p.Stats()
	if stats.Collected == 0 {
		t.Fatal("no snapshot delivered after healing")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(skippedReports) == 0 || skippedReports[0] < int(failedAtHeal) {
		t.Errorf("first delivery reported %v skipped, want ≥ %d", skippedReports, failedAtHeal)
	}
	want := []string{"healthy->degraded", "degraded->down", "down->healthy"}
	if len(transitions) < len(want) {
		t.Fatalf("transitions %v, want at least %v", transitions, want)
	}
	for i, w := range want {
		if transitions[i] != w {
			t.Errorf("transition %d = %s, want %s (all: %v)", i, transitions[i], w, transitions)
		}
	}
	if stats.State != Healthy {
		t.Errorf("final state %v", stats.State)
	}
}

package collect

import (
	"bytes"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/faultnet"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/telemetry"
)

// lockedWriter makes a bytes.Buffer safe for the poller goroutine's slog
// handler to write while the test reads.
type lockedWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestPollerHealthTelemetry drives a poller through the full health cycle
// Healthy → Degraded → Down → Healthy with faultnet and checks that the
// registry series, the Stats() transition counters, and the structured
// log all tell the same story.
func TestPollerHealthTelemetry(t *testing.T) {
	sk, err := core.New(core.Config{
		K: 4, Trees: 2, LeafWidth: 256, Widths: []int{8, 16, 32},
		Hash: hashing.NewBobFamily(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := NewLockedSketch(sk)
	src.Update([]byte("flow"), 9)

	inj := faultnet.New(faultnet.Config{Seed: 1})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	logw := &lockedWriter{}
	logger := telemetry.NewLogger(io.MultiWriter(logw), slog.LevelDebug, false)
	srv := Serve(faultnet.Listen(raw, inj), src, ServerConfig{
		ReadTimeout:  250 * time.Millisecond,
		WriteTimeout: 250 * time.Millisecond,
		IdleTimeout:  2 * time.Second,
		Logger:       logger,
	})
	defer srv.Close()

	reg := telemetry.NewRegistry()
	srv.Instrument(reg, "")

	var st struct {
		mu      sync.Mutex
		skipped int
	}
	p, err := NewPoller(PollerConfig{
		Addr:          srv.Addr(),
		Interval:      10 * time.Millisecond,
		Timeout:       100 * time.Millisecond,
		DegradedAfter: 1,
		DownAfter:     3,
		Logger:        logger,
		OnWindow: func(_ *Snapshot, skipped int) {
			st.mu.Lock()
			st.skipped += skipped
			st.mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Instrument(reg, `switch="0"`)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	waitFor := func(cond func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for !cond() {
			if !time.Now().Before(deadline) {
				t.Fatalf("timeout waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Healthy: at least one delivery.
	waitFor(func() bool { return p.Stats().Collected >= 1 }, "first delivery")

	// Outage: refuse all new connections and cut live ones. The poller
	// must pass through Degraded (1 failure) into Down (3 failures).
	inj.SetConfig(faultnet.Config{Seed: 1, RefuseProb: 1})
	inj.Cut()
	waitFor(func() bool { return p.Stats().State == Down }, "poller to go Down")

	// Heal: first success snaps straight back to Healthy.
	inj.Heal()
	waitFor(func() bool {
		s := p.Stats()
		return s.State == Healthy && s.TransitionsTo[Healthy] >= 1
	}, "poller to recover")
	p.Stop()

	stats := p.Stats()
	if stats.TransitionsTo[Degraded] < 1 || stats.TransitionsTo[Down] < 1 {
		t.Errorf("transition counters %v, want ≥1 into degraded and down", stats.TransitionsTo)
	}
	if stats.SkippedWindows < 3 {
		t.Errorf("skipped windows %d, want ≥3 (the outage spanned DownAfter failures)", stats.SkippedWindows)
	}
	st.mu.Lock()
	seen := st.skipped
	st.mu.Unlock()
	// Every skipped window is eventually reported through OnWindow except
	// any still pending when the poller stopped.
	if seen > int(stats.SkippedWindows) {
		t.Errorf("OnWindow reported %d skipped, stats say %d", seen, stats.SkippedWindows)
	}

	// The registry must carry the same story.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`fcm_poller_state{switch="0"} 0`,
		`fcm_poller_transitions_total{switch="0",state="degraded"}`,
		`fcm_poller_transitions_total{switch="0",state="down"}`,
		`fcm_poller_transitions_total{switch="0",state="healthy"}`,
		`fcm_poller_collected_total{switch="0"}`,
		`fcm_poller_skipped_windows_total{switch="0"}`,
		`fcm_collect_client_dials_total{switch="0"}`,
		"fcm_collect_server_conns_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}

	// And so must the structured log.
	logs := logw.String()
	for _, want := range []string{
		"collect server listening",
		"switch health degraded",
		`to=degraded`,
		`to=down`,
		"switch recovered",
		"collection failed",
	} {
		if !strings.Contains(logs, want) {
			t.Errorf("missing %q in log output:\n%s", want, logs)
		}
	}
}

// flipConn corrupts one bit at a fixed stream offset past the frame
// header and status byte, so the damage lands in the snapshot payload.
type flipConn struct {
	net.Conn
	off int
}

func (f *flipConn) Read(p []byte) (int, error) {
	n, err := f.Conn.Read(p)
	for i := 0; i < n; i++ {
		f.off++
		if f.off == 50 {
			p[i] ^= 0x01
		}
	}
	return n, err
}

// TestClientDecodeFailureTelemetry checks that a corrupting link shows up
// in the client's decode-failure counter and series.
func TestClientDecodeFailureTelemetry(t *testing.T) {
	sk, err := core.New(core.Config{
		K: 4, Trees: 2, LeafWidth: 256, Widths: []int{8, 16, 32},
		Hash: hashing.NewBobFamily(42),
	})
	if err != nil {
		t.Fatal(err)
	}
	src := NewLockedSketch(sk)
	src.Update([]byte("flow"), 5)

	srv, err := NewServer("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Flip one bit deep inside every response stream: the frame and the
	// status byte arrive intact, the snapshot payload fails its CRC.
	c, err := NewClient(ClientConfig{
		Addr: srv.Addr(), MaxRetries: 2, IOTimeout: time.Second,
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return &flipConn{Conn: conn}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := telemetry.NewRegistry()
	c.Instrument(reg, "")

	if _, err := c.ReadSketch(); err == nil {
		t.Fatal("expected read through a corrupting link to fail")
	}
	if got := c.Stats().DecodeFailures; got < 1 {
		t.Errorf("decode failures %d, want ≥1", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fcm_collect_client_decode_failures_total") {
		t.Errorf("missing decode-failure series:\n%s", buf.String())
	}
}

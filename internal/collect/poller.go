package collect

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"runtime/pprof"
	"sync"
	"time"

	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
)

// State is the poller's health, derived from consecutive collection
// failures. Transitions are Healthy → Degraded → Down as failures
// accumulate and straight back to Healthy on the first success.
type State int32

const (
	// Healthy: the last collection succeeded.
	Healthy State = iota
	// Degraded: at least DegradedAfter consecutive failures; windows are
	// being skipped but the switch is expected back.
	Degraded
	// Down: at least DownAfter consecutive failures; the switch should
	// be treated as unreachable.
	Down
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Down:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// PollerStats describe a poller's progress and health.
type PollerStats struct {
	// Collected counts delivered snapshots.
	Collected uint64
	// Failed counts collection attempts that delivered nothing.
	Failed uint64
	// SkippedWindows counts scheduled collections that produced no
	// snapshot; with Reset enabled these are windows whose traffic stayed
	// in the registers and was folded into a later snapshot, never lost
	// silently.
	SkippedWindows uint64
	// ConsecutiveFailures is the current failure streak (0 when healthy).
	ConsecutiveFailures int
	// State is the current health state.
	State State
	// TransitionsTo counts entries into each state, indexed by State
	// (TransitionsTo[Down] is how often the switch was declared
	// unreachable). The initial Healthy state is not counted.
	TransitionsTo [3]uint64
	// LastSuccess is when the last snapshot was delivered (zero before
	// the first delivery).
	LastSuccess time.Time
}

// Poller periodically collects snapshots from a switch — the "periodically
// collecting FCM-Sketch from the data plane" loop of §4.4. Each interval
// it reads the registers, optionally resets them (window rotation), and
// hands the snapshot to the callback. The loop is context-driven: Stop
// cancels an in-flight collection (returning within one I/O deadline, not
// one interval), failures are tracked into a health state, and skipped
// windows are reported so rotation accounting stays correct.
type Poller struct {
	cfg    PollerConfig
	client *Client

	mu      sync.Mutex
	cancel  context.CancelFunc
	stopped chan struct{}

	// Collection-loop state; written only by the loop goroutine, read
	// via Stats under statMu.
	statMu  sync.Mutex
	stats   PollerStats
	pending int // failures since the last delivered snapshot
	started time.Time

	log *slog.Logger
}

// PollerConfig configures a Poller.
type PollerConfig struct {
	// Addr is the collection server address.
	Addr string
	// Interval is the collection period.
	Interval time.Duration
	// Timeout bounds each read/write within one collection (default:
	// Interval). A black-holed switch costs one Timeout per attempt, and
	// Stop never waits longer than the remainder of one.
	Timeout time.Duration
	// Retries is how many extra in-collect attempts the snapshot read
	// gets (default 0: the next interval is the retry).
	Retries int
	// Reset rotates the window after each collection.
	Reset bool
	// SessionID is the underlying client's delta session ID (see
	// ClientConfig.SessionID); 0 draws a process-unique one.
	SessionID uint64
	// InitialDelay staggers the first collection: the loop sleeps this
	// long, collects once, and only then starts the interval ticker. A
	// Scheduler spreads its pollers' delays across one interval so a
	// controller's fan-in arrives as a steady trickle, not a thundering
	// herd. 0 keeps the legacy behavior (first collection after one full
	// interval).
	InitialDelay time.Duration
	// Gate, when non-nil, bounds how many collections run concurrently
	// across all pollers sharing it (controller fan-in cap). The poller
	// blocks on the gate before each collection; time spent waiting counts
	// against that collection's window.
	Gate *Gate
	// OnSnapshot receives every collected snapshot (required).
	OnSnapshot func(*Snapshot)
	// OnWindow, if set, additionally receives each snapshot with the
	// number of scheduled collections that were skipped since the last
	// delivery — 0 on schedule, n when the snapshot folds n missed
	// windows' traffic (Reset mode) or is simply n polls late.
	OnWindow func(snap *Snapshot, skipped int)
	// OnError receives transient collection errors; nil ignores them
	// (the poller keeps trying either way).
	OnError func(error)
	// OnStateChange observes health transitions. Called from the
	// collection goroutine, never concurrently.
	OnStateChange func(from, to State)
	// DegradedAfter and DownAfter are the consecutive-failure thresholds
	// for Degraded and Down (defaults 1 and 3).
	DegradedAfter int
	DownAfter     int
	// Dial overrides the client transport (e.g. fault injection).
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Logger receives structured health and failure records (and is
	// passed through to the underlying client); nil discards them.
	Logger *slog.Logger
	// Tracer, when non-nil, records one flight-recorder trace per
	// scheduled collection: gate wait, connect/retry attempts, frame
	// decode, delta apply (with fallback reason), rotation, and delivery
	// all under one trace ID, which also stamps this poller's log
	// records. nil (the default) costs one pointer check per span site.
	Tracer *tracing.Recorder

	// onSnapshotCtx, when set, is called instead-of-first on delivery
	// with the poll's context so downstream stages (the Aggregator's
	// absorb) join the poll trace. Package-internal: the public
	// callbacks keep their signatures.
	onSnapshotCtx func(context.Context, *Snapshot)
}

// NewPoller validates the configuration and returns an unstarted Poller.
func NewPoller(cfg PollerConfig) (*Poller, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("collect: poller needs an address")
	}
	if cfg.Interval <= 0 {
		return nil, fmt.Errorf("collect: poller interval must be positive, got %v", cfg.Interval)
	}
	if cfg.OnSnapshot == nil && cfg.OnWindow == nil && cfg.onSnapshotCtx == nil {
		return nil, fmt.Errorf("collect: poller needs an OnSnapshot or OnWindow callback")
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
	}
	if cfg.DegradedAfter <= 0 {
		cfg.DegradedAfter = 1
	}
	if cfg.DownAfter <= cfg.DegradedAfter {
		cfg.DownAfter = cfg.DegradedAfter + 2
	}
	client, err := NewClient(ClientConfig{
		Addr:        cfg.Addr,
		DialTimeout: cfg.Timeout,
		IOTimeout:   cfg.Timeout,
		MaxRetries:  cfg.Retries,
		Dial:        cfg.Dial,
		SessionID:   cfg.SessionID,
		Logger:      cfg.Logger,
	})
	if err != nil {
		return nil, err
	}
	return &Poller{cfg: cfg, client: client, log: telemetry.OrNop(cfg.Logger)}, nil
}

// Start launches the collection loop. It is an error to start a running
// poller.
func (p *Poller) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cancel != nil {
		return fmt.Errorf("collect: poller already running")
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	p.stopped = make(chan struct{})
	p.statMu.Lock()
	p.started = time.Now()
	p.statMu.Unlock()
	go p.loop(ctx, p.stopped)
	return nil
}

// ConvergenceLag is how long ago the controller last held this switch's
// state: seconds since the last delivered snapshot, or since Start if
// nothing has been delivered yet (0 before Start). A healthy fleet keeps
// every poller's lag near its interval; a partition or a dead aggregator
// shows up as a lag that grows without bound.
func (p *Poller) ConvergenceLag() float64 {
	p.statMu.Lock()
	last, started := p.stats.LastSuccess, p.started
	p.statMu.Unlock()
	switch {
	case !last.IsZero():
		return time.Since(last).Seconds()
	case !started.IsZero():
		return time.Since(started).Seconds()
	default:
		return 0
	}
}

// Stop halts the loop and waits for it to finish. An in-flight collection
// is interrupted (its connection deadline is yanked), so Stop returns
// within one I/O operation even against a black-holed switch. Stopping a
// stopped poller is a no-op.
func (p *Poller) Stop() {
	p.mu.Lock()
	cancel, stopped := p.cancel, p.stopped
	p.cancel, p.stopped = nil, nil
	p.mu.Unlock()
	if cancel == nil {
		return
	}
	cancel()
	<-stopped
}

// Stats returns a consistent copy of the poller's counters and health.
func (p *Poller) Stats() PollerStats {
	p.statMu.Lock()
	defer p.statMu.Unlock()
	return p.stats
}

// loop runs until ctx is canceled. The goroutine carries pprof labels so
// CPU and goroutine profiles attribute collection time per switch.
func (p *Poller) loop(ctx context.Context, stopped chan<- struct{}) {
	pprof.Do(ctx, pprof.Labels("subsystem", "poller", "switch", p.cfg.Addr), func(ctx context.Context) {
		p.run(ctx, stopped)
	})
}

func (p *Poller) run(ctx context.Context, stopped chan<- struct{}) {
	defer close(stopped)
	defer p.client.Close() //nolint:errcheck // teardown
	if p.cfg.InitialDelay > 0 {
		// Staggered start: sleep the assigned slice of the interval, then
		// collect immediately so the steady-state phase (one collection
		// per interval, offset by the delay) begins right away.
		t := time.NewTimer(p.cfg.InitialDelay)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		p.runOnce(ctx)
		if ctx.Err() != nil {
			return
		}
	}
	ticker := time.NewTicker(p.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			p.runOnce(ctx)
			if ctx.Err() != nil {
				return
			}
		}
	}
}

// runOnce performs one scheduled collection, honoring the shared fan-in
// gate when one is configured. With a Tracer configured, the whole
// window — gate wait through delivery — records as one trace.
func (p *Poller) runOnce(ctx context.Context) {
	tr := p.cfg.Tracer.StartTrace("poll")
	defer tr.End()
	tr.Root().Annotate("addr", p.cfg.Addr)
	ctx = tracing.NewContext(ctx, tr)
	if p.cfg.Gate != nil {
		gsp := tr.StartSpan("gate.wait")
		err := p.cfg.Gate.Acquire(ctx)
		if err != nil {
			gsp.Fail(err)
		}
		gsp.End()
		if err != nil {
			return
		}
		defer p.cfg.Gate.Release()
	}
	snap, err := p.collectOnce(ctx)
	if ctx.Err() != nil {
		return
	}
	if err != nil {
		tr.Root().Fail(err)
		p.noteFailure(ctx, err)
		return
	}
	p.noteSuccess(ctx, snap)
}

// collectOnce reads (and optionally resets) one snapshot over the reused
// client connection.
func (p *Poller) collectOnce(ctx context.Context) (*Snapshot, error) {
	snap, err := p.client.ReadSketchContext(ctx)
	if err != nil {
		return nil, err
	}
	if p.cfg.Reset {
		rsp := tracing.FromContext(ctx).StartSpan("rotate")
		err := p.client.ResetSketchContext(ctx)
		if err != nil {
			rsp.Fail(err)
		}
		rsp.End()
		if err != nil {
			// The snapshot is good but the rotation failed: deliver it
			// anyway and let failure accounting flag the window — the
			// next snapshot will fold this window's traffic again.
			p.noteSuccess(ctx, snap)
			return nil, fmt.Errorf("collect: window rotation failed after snapshot: %w", err)
		}
	}
	return snap, nil
}

// noteFailure updates failure accounting and health after a missed
// collection. ctx carries the poll trace: the failure records it emits
// join the flight recorder's errored ring by trace_id.
func (p *Poller) noteFailure(ctx context.Context, err error) {
	log := tracing.FromContext(ctx).LogWith(p.log)
	p.statMu.Lock()
	p.stats.Failed++
	p.stats.SkippedWindows++
	p.stats.ConsecutiveFailures++
	p.pending++
	consecutive := p.stats.ConsecutiveFailures
	from := p.stats.State
	to := p.healthFor(consecutive)
	p.stats.State = to
	if to != from {
		p.stats.TransitionsTo[to]++
	}
	p.statMu.Unlock()
	log.Debug("collection failed",
		"addr", p.cfg.Addr, "err", err, "consecutive", consecutive)
	if p.cfg.OnError != nil {
		p.cfg.OnError(err)
	}
	if to != from {
		log.Warn("switch health degraded",
			"addr", p.cfg.Addr, "from", from.String(), "to", to.String(),
			"consecutive", consecutive)
		if p.cfg.OnStateChange != nil {
			p.cfg.OnStateChange(from, to)
		}
	}
}

// noteSuccess delivers a snapshot, reporting how many scheduled windows
// were skipped since the previous delivery, and restores health. ctx
// carries the poll trace so downstream absorbs join it.
func (p *Poller) noteSuccess(ctx context.Context, snap *Snapshot) {
	p.statMu.Lock()
	p.stats.Collected++
	p.stats.LastSuccess = time.Now()
	p.stats.ConsecutiveFailures = 0
	skipped := p.pending
	p.pending = 0
	from := p.stats.State
	p.stats.State = Healthy
	if from != Healthy {
		p.stats.TransitionsTo[Healthy]++
	}
	p.statMu.Unlock()
	dsp := tracing.FromContext(ctx).StartSpan("deliver")
	if p.cfg.onSnapshotCtx != nil {
		p.cfg.onSnapshotCtx(ctx, snap)
	} else if p.cfg.OnSnapshot != nil {
		p.cfg.OnSnapshot(snap)
	}
	if p.cfg.OnWindow != nil {
		p.cfg.OnWindow(snap, skipped)
	}
	dsp.End()
	if from != Healthy {
		tracing.FromContext(ctx).LogWith(p.log).Info("switch recovered",
			"addr", p.cfg.Addr, "from", from.String(), "skipped_windows", skipped)
		if p.cfg.OnStateChange != nil {
			p.cfg.OnStateChange(from, Healthy)
		}
	}
}

// healthFor maps a failure streak to a state.
func (p *Poller) healthFor(consecutive int) State {
	switch {
	case consecutive >= p.cfg.DownAfter:
		return Down
	case consecutive >= p.cfg.DegradedAfter:
		return Degraded
	default:
		return Healthy
	}
}

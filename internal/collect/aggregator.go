package collect

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/insight"
	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/telemetry/tracing"
)

// Aggregator is the middle tier of a collection tree: it polls a region of
// switches (through its own staggered Scheduler), keeps each member's
// latest restored sketch, and re-exports the exact merge of the region as
// a collect Source — so a controller polls one aggregator instead of N
// switches, and an aggregator's own server can in turn serve deltas of the
// merged state.
//
// The tree is lossless because FCM merge is exact, commutative and
// associative (difftest proves all three): merging per-switch sketches at
// an aggregator and merging aggregator outputs at the controller is
// bit-identical to merging every switch flat, in any order. That is the
// whole failure model — when an aggregator dies, the controller can poll
// its members directly (or re-home them to another aggregator) and the
// final registers cannot change, only the collection path does.
type Aggregator struct {
	cfg   AggregatorConfig
	sched *Scheduler
	log   *slog.Logger

	mu      sync.Mutex
	latest  map[string]*core.Sketch // member addr → last restored sketch (immutable)
	gen     uint64                  // bumped per stored member snapshot
	pending []*core.Sketch          // snapshots awaiting DrainRound (TrackRounds only)

	memberSnaps   atomic.Uint64
	merges        atomic.Uint64
	resetRequests atomic.Uint64

	// Accuracy introspection: one analyzer per member (fed on every
	// absorbed snapshot, so each member's trend history is per-window)
	// plus a prober over the merged region.
	insightMu     sync.Mutex
	memberInsight map[string]*insight.Analyzer
	region        *insight.Prober
}

// AggregatorConfig configures an Aggregator.
type AggregatorConfig struct {
	// Members are the region's switches: one PollerConfig per switch with
	// at least Addr set. Interval, stagger, gate, logger and the snapshot
	// callback are filled in by the aggregator (a member's own OnSnapshot,
	// if set, is chained after the aggregator's).
	Members []PollerConfig
	// Interval is the member collection period (required unless every
	// member sets its own).
	Interval time.Duration
	// Timeout and Retries apply to members that leave them zero.
	Timeout time.Duration
	Retries int
	// MaxInFlight bounds concurrent member collections (default 8).
	MaxInFlight int
	// JitterSeed decorrelates the member stagger; 0 means 1.
	JitterSeed int64
	// TrackRounds retains every absorbed member snapshot until the next
	// DrainRound call, for windowed aggregation over reset-mode members
	// (each snapshot is one interval's traffic, so each must be counted
	// exactly once). When false, DrainRound always returns nil.
	TrackRounds bool
	// Family, when set, restores member sketches with the data plane's
	// hash family so the merged sketch answers count queries locally. nil
	// restores control-plane-only sketches (registers still merge and
	// serve exactly).
	Family hashing.Family
	// OnMemberState observes member health transitions with the member's
	// address — the hook a controller uses to detect dead members and
	// re-home them. Called from collection goroutines.
	OnMemberState func(addr string, from, to State)
	// Logger receives structured records; nil discards them.
	Logger *slog.Logger
	// Tracer, when non-nil, is handed to every member poller (that does
	// not carry its own) so each member poll records one flight-recorder
	// trace whose spans run gate wait → client attempts → decode →
	// delta apply → aggregator absorb.
	Tracer *tracing.Recorder
}

// NewAggregator builds (but does not start) an aggregator.
func NewAggregator(cfg AggregatorConfig) (*Aggregator, error) {
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("collect: aggregator needs at least one member")
	}
	a := &Aggregator{
		cfg:           cfg,
		latest:        make(map[string]*core.Sketch, len(cfg.Members)),
		log:           telemetry.OrNop(cfg.Logger),
		memberInsight: make(map[string]*insight.Analyzer, len(cfg.Members)),
	}
	a.region = insight.NewProber(a.observeRegion)
	members := make([]PollerConfig, len(cfg.Members))
	for i := range cfg.Members {
		m := cfg.Members[i]
		if m.Addr == "" {
			return nil, fmt.Errorf("collect: aggregator member %d has no address", i)
		}
		if m.Timeout <= 0 {
			m.Timeout = cfg.Timeout
		}
		if m.Retries == 0 {
			m.Retries = cfg.Retries
		}
		if m.Tracer == nil {
			m.Tracer = cfg.Tracer
		}
		addr := m.Addr
		chained := m.OnSnapshot
		m.OnSnapshot = nil
		m.onSnapshotCtx = func(ctx context.Context, snap *Snapshot) {
			a.absorb(ctx, addr, snap)
			if chained != nil {
				chained(snap)
			}
		}
		chainedState := m.OnStateChange
		m.OnStateChange = func(from, to State) {
			if cfg.OnMemberState != nil {
				cfg.OnMemberState(addr, from, to)
			}
			if chainedState != nil {
				chainedState(from, to)
			}
		}
		members[i] = m
	}
	sched, err := NewScheduler(SchedulerConfig{
		Interval:    cfg.Interval,
		MaxInFlight: cfg.MaxInFlight,
		JitterSeed:  cfg.JitterSeed,
		Logger:      cfg.Logger,
	}, members)
	if err != nil {
		return nil, err
	}
	a.sched = sched
	return a, nil
}

// Start launches the member collection loops.
func (a *Aggregator) Start() error { return a.sched.Start() }

// Stop halts member collection. The last merged state stays serveable.
func (a *Aggregator) Stop() { a.sched.Stop() }

// Scheduler exposes the member scheduler (per-member poller stats and
// health).
func (a *Aggregator) Scheduler() *Scheduler { return a.sched }

// MemberAddrs lists the member switch addresses (re-homing needs them).
func (a *Aggregator) MemberAddrs() []string {
	addrs := make([]string, 0, len(a.cfg.Members))
	for i := range a.cfg.Members {
		addrs = append(addrs, a.cfg.Members[i].Addr)
	}
	return addrs
}

// absorb folds one member snapshot in, as a span of the member's poll
// trace when the poller carries one.
func (a *Aggregator) absorb(ctx context.Context, addr string, snap *Snapshot) {
	sp := tracing.FromContext(ctx).StartSpan("aggregator.absorb")
	sp.Annotate("member", addr)
	if err := a.storeMember(addr, snap); err != nil {
		sp.Fail(err)
	}
	sp.End()
}

// storeMember installs a member's freshest sketch. The restored sketch is
// stored as an immutable value — Snapshot merges from these
// references outside the lock, so a stored sketch is never mutated.
func (a *Aggregator) storeMember(addr string, snap *Snapshot) error {
	sk, err := snap.Restore(a.cfg.Family)
	if err != nil {
		a.log.Warn("aggregator dropped unrestorable member snapshot",
			"member", addr, "err", err)
		return err
	}
	a.mu.Lock()
	a.latest[addr] = sk
	a.gen++
	if a.cfg.TrackRounds {
		a.pending = append(a.pending, sk)
	}
	a.mu.Unlock()
	a.memberSnaps.Add(1)
	a.noteMemberInsight(addr, sk)
	return nil
}

// noteMemberInsight feeds the member's accuracy analyzer. The restored
// sketch is immutable and already in memory, so the register scan is the
// only cost — once per member per window, the same order as the restore
// itself.
func (a *Aggregator) noteMemberInsight(addr string, sk *core.Sketch) {
	a.insightMu.Lock()
	an := a.memberInsight[addr]
	if an == nil {
		an = insight.NewAnalyzer()
		a.memberInsight[addr] = an
	}
	a.insightMu.Unlock()
	an.ObserveSketch(sk)
}

// InsightReport assembles the fleet accuracy rollup: every member's
// latest per-window self-report plus the merged region's, the /debug/
// insight payload of fcmagg. The region is merged and observed at most
// once per prober TTL; between observations the cached report is served.
// The report has no region before the first member snapshot or while
// member geometries drift.
func (a *Aggregator) InsightReport() insight.FleetReport {
	fr := insight.FleetReport{Members: map[string]insight.Report{}}
	a.insightMu.Lock()
	for addr, an := range a.memberInsight {
		if rep, ok := an.Last(); ok {
			fr.Members[addr] = rep
		}
	}
	a.insightMu.Unlock()
	if rep, ok := a.region.Report(); ok {
		fr.Region = &rep
	}
	return fr
}

// observeRegion observes the merged region, or reports false when there
// is no region to merge.
func (a *Aggregator) observeRegion() (insight.Observation, bool) {
	sk, _ := a.mergeLatest("insight")
	if sk == nil {
		return insight.Observation{}, false
	}
	return insight.Observe(sk), true
}

// Snapshot implements Source: the exact merge of every member's latest
// sketch, stamped with a generation that advances whenever any member
// contributes a new snapshot — equal generations mean the same member
// sketches, hence bit-identical merges. Returns nil before the first
// member snapshot arrives (the server answers an error status and the
// controller retries). Each region served counts as one merge.
func (a *Aggregator) Snapshot() (*core.Sketch, uint64) {
	merged, gen := a.mergeLatest("fold")
	if merged != nil {
		a.merges.Add(1)
	}
	return merged, gen
}

// mergeLatest is Snapshot without the merge count: the exact merge of every
// member's latest sketch, folded under op's profile label, and its
// generation, or nil before the first member snapshot.
func (a *Aggregator) mergeLatest(op string) (*core.Sketch, uint64) {
	a.mu.Lock()
	gen := a.gen
	refs := make([]*core.Sketch, 0, len(a.latest))
	for _, sk := range a.latest {
		refs = append(refs, sk)
	}
	a.mu.Unlock()
	// Merge outside the lock: member updates keep landing while we fold.
	// Map order is arbitrary but irrelevant — FCM merge is commutative and
	// associative, so any order yields the same registers.
	merged, err := a.fold(refs, op)
	if err != nil {
		// Geometry drift between members (mid-reconfiguration): serve
		// nothing rather than a partial region.
		a.log.Warn("aggregator member geometry mismatch, merge aborted", "err", err)
	}
	if merged == nil {
		return nil, 0
	}
	return merged, gen
}

// DrainRound returns the exact merge of every member snapshot absorbed
// since the previous drain, or nil when none arrived. Each snapshot joins
// exactly one drained round — unlike Snapshot, which re-merges every
// member's latest sketch, a member that misses a poll contributes nothing
// rather than its previous (already drained) snapshot again. That
// exactly-once property is what lets a windowed ring file drained rounds
// as disjoint traffic intervals without double counting.
//
// Requires AggregatorConfig.TrackRounds (otherwise nothing is retained and
// DrainRound returns nil). If the pending snapshots' geometries drifted
// mid-reconfiguration the whole batch is dropped with a warning: counts
// across a reconfiguration are not comparable anyway, and a partial merge
// would silently misattribute the round.
func (a *Aggregator) DrainRound() *core.Sketch {
	a.mu.Lock()
	refs := a.pending
	a.pending = nil
	a.mu.Unlock()
	merged, err := a.fold(refs, "drain")
	if err != nil {
		a.log.Warn("aggregator dropped round: member geometry drift", "err", err)
	}
	if merged != nil {
		a.merges.Add(1)
	}
	return merged
}

// fold returns the exact merge of refs into a fresh sketch, leaving every
// ref untouched, or nil when refs is empty or any merge fails. It runs
// under pprof labels (op names the caller) so profiles attribute the
// region-merge CPU.
func (a *Aggregator) fold(refs []*core.Sketch, op string) (merged *core.Sketch, err error) {
	if len(refs) == 0 {
		return nil, nil
	}
	pprof.Do(context.Background(), pprof.Labels("subsystem", "aggregator", "op", op),
		func(context.Context) {
			merged = refs[0].Clone()
			for _, sk := range refs[1:] {
				if err = merged.Merge(sk); err != nil {
					merged = nil
					return
				}
			}
		})
	return merged, err
}

// Reset implements Source — as a logged no-op. Forwarding a reset to N
// members is non-idempotent and partial failures would silently split
// the window; rotation in a collection tree is leaf-driven (the pollers'
// Reset flag rotates each switch after a successful read).
func (a *Aggregator) Reset() {
	a.resetRequests.Add(1)
	a.log.Warn("aggregator ignoring reset request: rotation is leaf-driven")
}

// AggregatorStats describe the aggregation tier.
type AggregatorStats struct {
	// Members is the configured member count; MembersReporting is how
	// many have contributed at least one snapshot.
	Members          int
	MembersReporting int
	// MemberSnapshots counts snapshots folded in from members.
	MemberSnapshots uint64
	// Merges counts merged exports served.
	Merges uint64
	// ResetRequests counts ignored reset requests.
	ResetRequests uint64
	// Generation is the current aggregation generation.
	Generation uint64
}

// Stats returns the aggregator's counters.
func (a *Aggregator) Stats() AggregatorStats {
	a.mu.Lock()
	reporting, gen := len(a.latest), a.gen
	a.mu.Unlock()
	return AggregatorStats{
		Members:          len(a.cfg.Members),
		MembersReporting: reporting,
		MemberSnapshots:  a.memberSnaps.Load(),
		Merges:           a.merges.Load(),
		ResetRequests:    a.resetRequests.Load(),
		Generation:       gen,
	}
}

// Instrument registers the aggregator's series.
func (a *Aggregator) Instrument(reg *telemetry.Registry, labels string) {
	bind := statBinder{reg: reg, labels: labels}
	bind.gauge("fcm_aggregator_members",
		"Switches configured under this aggregator.",
		func() float64 { return float64(a.Stats().Members) })
	bind.gauge("fcm_aggregator_members_reporting",
		"Members that have contributed at least one snapshot.",
		func() float64 { return float64(a.Stats().MembersReporting) })
	bind.counter("fcm_aggregator_member_snapshots_total",
		"Member snapshots folded into the aggregate.",
		func() float64 { return float64(a.Stats().MemberSnapshots) })
	bind.counter("fcm_aggregator_merges_total",
		"Merged region exports served.",
		func() float64 { return float64(a.Stats().Merges) })
	bind.counter("fcm_aggregator_reset_requests_total",
		"Reset requests ignored (rotation is leaf-driven).",
		func() float64 { return float64(a.Stats().ResetRequests) })
	a.sched.Instrument(reg, labels)
}

// Package window is the sliding-window temporal layer of the FCM
// framework: a ring of closed-window sketches over a live sharded engine
// (or, in collector mode, over windows filed from elsewhere), answering
// *_over_time queries — per-flow count, heavy hitters, cardinality,
// entropy and flow-size distribution over an arbitrary lookback — without
// stopping ingest.
//
// The design leans entirely on the property the paper proves in §5: FCM's
// merge is exact, so the fold of any set of window sketches is register-
// bit-identical to a single sketch that ingested those windows' packets
// serially. That makes temporal composition lossless, which approximate
// mergeable sketches (UnivMon-style *_over_time layers) cannot claim, and
// it is what internal/difftest's windowed harness pins: any over-time
// query equals the same query against a serial ingest of the concatenated
// covering windows.
//
// # Ring + exponential-histogram coarsening
//
// Rotate closes the live window into a span-1 bucket carrying
// minTime/maxTime/generation metadata and the window's exact packet count,
// which the engine keeps beside each shard's registers. To keep long
// lookbacks cheap the ring maintains an exponential histogram over bucket
// spans: whenever more than SpanCap buckets share a coarsening level, the
// two oldest of that level are merged (word-wide SWAR kernel) into one
// bucket of the next level with double the span. A retention of n windows therefore holds
// O(SpanCap · log n) buckets, and any lookback folds O(log n) sketches.
// Coarsening always allocates the merged sketch fresh — buckets are
// immutable once filed — so queries that collected bucket references
// before a coarsen or rotate still fold a consistent pre-step view.
//
// # Edge semantics (floor/ceil)
//
// Lookbacks resolve to whole buckets, never partial ones:
//
//   - The old edge is a ceiling: a coarsened bucket that straddles the
//     requested boundary is included whole, so a query never covers less
//     history than asked for (while retained). Coverage reports the exact
//     generation range actually folded.
//   - The new edge is a floor by default: only closed windows are folded.
//     Lookback.IncludeLive extends the fold through the live, partially
//     filled window.
//
// Queries fold the covering buckets into a pooled scratch sketch outside
// the ring lock, so rotation-vs-query races resolve to either the pre- or
// the post-rotation view, never a torn one.
package window

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	fcm "github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/engine"
)

// Defaults for Config's zero fields.
const (
	defaultBucketDuration = 5 * time.Second
	defaultMaxWindows     = 1024
	defaultSpanCap        = 3
)

// ErrEmpty is returned by queries whose lookback covers no data at all —
// no closed bucket intersects it and the live window was not requested
// (or does not exist, in collector mode).
var ErrEmpty = errors.New("window: lookback covers no data")

// Config parameterizes a Ring.
type Config struct {
	// Sketch is the geometry of every window of a live ring. Collector
	// rings ignore it and adopt the geometry of the first filed window.
	Sketch fcm.Config
	// Shards is the live engine's shard count (default 1).
	Shards int
	// BucketDuration is the nominal duration of one window. It stamps
	// bucket metadata and resolves Duration lookbacks; the ring itself
	// never sets timers — the owner calls Rotate on its own cadence.
	BucketDuration time.Duration
	// MaxWindows is the retention horizon in original windows
	// (default 1024). Buckets whose newest window falls outside it are
	// dropped and counted.
	MaxWindows int
	// SpanCap is the exponential histogram's per-level bucket cap k
	// (default 3): a (k+1)-th bucket at any level triggers a coarsening
	// merge of that level's two oldest. 1 coarsens most aggressively.
	SpanCap int
	// Now is the clock (default time.Now); tests inject a fake one.
	Now func() time.Time
}

// withDefaults normalizes the configuration.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.BucketDuration <= 0 {
		c.BucketDuration = defaultBucketDuration
	}
	if c.MaxWindows <= 0 {
		c.MaxWindows = defaultMaxWindows
	}
	if c.SpanCap <= 0 {
		c.SpanCap = defaultSpanCap
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// bucket is one closed, immutable entry of the ring: a sketch plus the
// metadata that locates it on the time and generation axes.
type bucket struct {
	sk       *core.Sketch
	level    int // coarsening level; a fresh window is level 0
	span     int // original windows folded into this bucket
	firstGen uint64
	lastGen  uint64
	minTime  time.Time
	maxTime  time.Time
	packets  uint64
}

// BucketInfo is the exported metadata of one retained bucket, oldest
// first, as reported by Ring.Buckets and the /debug/overtime handler.
type BucketInfo struct {
	Level           int       `json:"level"`
	Span            int       `json:"span"`
	FirstGeneration uint64    `json:"first_generation"`
	Generation      uint64    `json:"generation"`
	MinTime         time.Time `json:"min_time"`
	MaxTime         time.Time `json:"max_time"`
	Packets         uint64    `json:"packets"`
	ResidentBytes   int       `json:"resident_bytes"`
}

// Lookback selects how far back an over-time query reaches. Exactly one
// of Windows and Duration should be set; both zero means "all retained
// history". See the package comment for the floor/ceil edge semantics.
type Lookback struct {
	// Windows covers the most recent n original windows (ceil'd to whole
	// buckets). 0 = unbounded.
	Windows int
	// Duration covers buckets whose maxTime falls after now-Duration
	// (straddling buckets included whole). 0 = unbounded.
	Duration time.Duration
	// IncludeLive extends the fold through the live, partially filled
	// window (ignored in collector mode, which has none).
	IncludeLive bool
}

// LastWindows covers the n most recent closed windows (0 = all retained).
func LastWindows(n int) Lookback { return Lookback{Windows: n} }

// LastDuration covers the trailing duration d; time-based lookbacks reach
// the present, so the live window is included.
func LastDuration(d time.Duration) Lookback {
	return Lookback{Duration: d, IncludeLive: true}
}

// WithLive returns the lookback with the live window included.
func (lb Lookback) WithLive() Lookback {
	lb.IncludeLive = true
	return lb
}

// Coverage reports what an over-time query actually folded, so callers
// (and the differential harness) know the exact window set behind an
// answer — the ceiling can cover more than the request.
type Coverage struct {
	// Buckets is the number of closed buckets folded.
	Buckets int `json:"buckets"`
	// Windows is the number of original windows those buckets span.
	Windows int `json:"windows"`
	// FirstGeneration..LastGeneration is the covered range of window
	// ordinals (1-based; both 0 when no closed window is covered).
	FirstGeneration uint64 `json:"first_generation"`
	LastGeneration  uint64 `json:"last_generation"`
	// From/To bound the covered wall-clock span of closed windows.
	From time.Time `json:"from"`
	To   time.Time `json:"to"`
	// IncludesLive reports whether the live window joined the fold.
	IncludesLive bool `json:"includes_live"`
	// Packets totals the packets recorded by the covered windows.
	Packets uint64 `json:"packets"`
}

// Ring is the temporal layer: closed-window buckets (oldest first) behind
// either a live engine the ring owns, or none at all (collector mode, fed
// via FileWindow). All methods are safe for concurrent use; Update never
// takes the ring lock, so the ingest hot path is exactly the engine's.
type Ring struct {
	cfg Config

	// live is the owned ingest engine; nil in collector mode.
	live *engine.Engine

	// mu orders rotation, filing, coarsening and the covering-set scan of
	// queries. The fold itself runs outside it.
	mu        sync.Mutex
	buckets   []*bucket
	gen       uint64 // ordinal of the newest closed window
	liveStart time.Time

	// scratch pools fold targets so steady-state queries allocate no
	// sketch state. A collector ring can adopt a new geometry once
	// retention has emptied it, so scratchFor verifies each pooled entry
	// against the fold's first source and discards stale ones.
	scratch sync.Pool

	rotations      atomic.Uint64
	coarsenMerges  atomic.Uint64
	droppedWindows atomic.Uint64
}

// New builds a ring that owns its live data plane: a sharded engine with
// cfg.Shards shards of cfg.Sketch geometry.
func New(cfg Config) (*Ring, error) {
	cfg = cfg.withDefaults()
	live, err := fcm.NewSharded(cfg.Sketch, cfg.Shards)
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	cfg.Sketch = live.Config()
	r := &Ring{cfg: cfg, live: live.Engine()}
	r.liveStart = cfg.Now()
	return r, nil
}

// NewCollector builds a ring with no live data plane: an aggregation tier
// (fcmagg) files each collection round's merged region sketch with
// FileWindow, and the ring serves over-time queries across rounds. The
// geometry is adopted from the first filed window.
func NewCollector(cfg Config) *Ring {
	cfg = cfg.withDefaults()
	return &Ring{cfg: cfg}
}

// Config returns the ring's effective configuration.
func (r *Ring) Config() Config { return r.cfg }

// errCollector is returned by the live-window methods of a collector ring.
var errCollector = errors.New("window: collector ring has no live window; use FileWindow")

// Update records inc occurrences of key in the live window. It goes
// straight to the engine — no ring lock — so the ingest hot path is
// unchanged by the temporal layer. Errors only in collector mode.
func (r *Ring) Update(key []byte, inc uint64) error {
	if r.live == nil {
		return errCollector
	}
	r.live.Update(key, inc)
	return nil
}

// UpdateBatch records inc occurrences of every key in keys in the live
// window. Errors only in collector mode.
func (r *Ring) UpdateBatch(keys [][]byte, inc uint64) error {
	if r.live == nil {
		return errCollector
	}
	r.live.UpdateBatch(keys, inc)
	return nil
}

// Rotate closes the live window into a fresh span-1 bucket, assigns it
// the next generation, and runs the coarsening and retention passes.
// Updates racing Rotate land, and are counted, in exactly one window (the
// engine's guarantee), and queries racing it see either the pre- or the
// post-rotation bucket set.
func (r *Ring) Rotate() error {
	if r.live == nil {
		return errCollector
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.cfg.Now()
	sk, packets := r.live.Rotate()
	r.fileLocked(sk, r.liveStart, now, packets)
	r.liveStart = now
	return nil
}

// FileWindow appends an externally closed window — collector mode's
// ingest path. sk must merge with previously filed windows — same
// geometry, hash mode, hash seed and counter encoding (the first call
// adopts them) — and must not be mutated by the caller afterwards: the
// ring treats buckets as immutable.
func (r *Ring) FileWindow(sk *core.Sketch, minTime, maxTime time.Time, packets uint64) error {
	if sk == nil {
		return errors.New("window: cannot file a nil sketch")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buckets) > 0 {
		if err := r.buckets[len(r.buckets)-1].sk.Compatible(sk); err != nil {
			return fmt.Errorf("window: filed window cannot merge: %w", err)
		}
	}
	r.fileLocked(sk, minTime, maxTime, packets)
	return nil
}

// fileLocked appends a closed window and re-establishes the exponential
// histogram and retention invariants. Callers hold r.mu.
func (r *Ring) fileLocked(sk *core.Sketch, minTime, maxTime time.Time, packets uint64) {
	r.gen++
	r.buckets = append(r.buckets, &bucket{
		sk: sk, level: 0, span: 1,
		firstGen: r.gen, lastGen: r.gen,
		minTime: minTime, maxTime: maxTime, packets: packets,
	})
	r.rotations.Add(1)
	r.coarsenLocked()
	r.retainLocked()
}

// coarsenLocked restores the exponential-histogram invariant: no level
// holds more than SpanCap buckets. Overfull levels cascade upward — the
// two oldest buckets of the lowest overfull level merge into one bucket
// one level up, which may overfill that level in turn. Merged sketches
// are freshly allocated (clone + SWAR merge); the source buckets stay
// untouched for any fold that already collected them.
func (r *Ring) coarsenLocked() {
	for {
		lvl, i := r.lowestOverfullLocked()
		if lvl < 0 {
			return
		}
		r.mergeAdjacentLocked(i)
	}
}

// lowestOverfullLocked finds the lowest coarsening level holding more
// than SpanCap buckets, returning the level and the index of its oldest
// bucket, or (-1, -1) when the invariant holds. Levels are non-increasing
// oldest→newest, so each level is one contiguous run and the runs rise
// in level from the newest end: one backward pass over the runs finds the
// lowest overfull level without allocating.
func (r *Ring) lowestOverfullLocked() (int, int) {
	bs := r.buckets
	for end := len(bs); end > 0; {
		lvl := bs[end-1].level
		start := end - 1
		for start > 0 && bs[start-1].level == lvl {
			start--
		}
		if end-start > r.cfg.SpanCap {
			return lvl, start
		}
		end = start
	}
	return -1, -1
}

// mergeAdjacentLocked merges buckets[i] and buckets[i+1] into one bucket
// at the next coarsening level. Levels are non-increasing oldest→newest,
// so the two oldest buckets of any level are always adjacent.
func (r *Ring) mergeAdjacentLocked(i int) {
	a, b := r.buckets[i], r.buckets[i+1]
	sk := a.sk.Clone()
	// Same geometry by construction; Merge cannot fail.
	if err := sk.Merge(b.sk); err != nil {
		panic("window: coarsening merge of same-geometry buckets failed: " + err.Error())
	}
	merged := &bucket{
		sk:       sk,
		level:    max(a.level, b.level) + 1,
		span:     a.span + b.span,
		firstGen: a.firstGen,
		lastGen:  b.lastGen,
		minTime:  a.minTime,
		maxTime:  b.maxTime,
		packets:  a.packets + b.packets,
	}
	r.buckets[i] = merged
	// Compact in place and nil the vacated tail slot, so the backing
	// array does not keep a stale bucket's sketch reachable.
	last := len(r.buckets) - 1
	copy(r.buckets[i+1:], r.buckets[i+2:])
	r.buckets[last] = nil
	r.buckets = r.buckets[:last]
	r.coarsenMerges.Add(1)
}

// Coarsen forces one compaction step — the two oldest buckets merge into
// one — regardless of the per-level cap. It trades old-edge granularity
// (the ceiling covers more once buckets are wider) for fold cost, and is
// exposed so operators and the fuzzer can drive the histogram into every
// shape. A ring with fewer than two buckets is left unchanged.
func (r *Ring) Coarsen() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buckets) < 2 {
		return
	}
	r.mergeAdjacentLocked(0)
	// A forced merge can overfill the level it lands on.
	r.coarsenLocked()
}

// retainLocked drops buckets whose newest window has aged out of the
// MaxWindows horizon. Dropping is all-or-nothing per bucket: a coarsened
// bucket straddling the horizon is kept whole (the ceiling again).
func (r *Ring) retainLocked() {
	if r.gen < uint64(r.cfg.MaxWindows) {
		return
	}
	floor := r.gen - uint64(r.cfg.MaxWindows)
	for len(r.buckets) > 0 && r.buckets[0].lastGen <= floor {
		r.droppedWindows.Add(uint64(r.buckets[0].span))
		// Nil the vacated slot so the backing array does not keep the
		// dropped sketch reachable until the next reallocation.
		r.buckets[0] = nil
		r.buckets = r.buckets[1:]
	}
}

// Generation returns the ordinal of the newest closed window (0 before
// the first rotation).
func (r *Ring) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Buckets returns the retained buckets' metadata, oldest first.
func (r *Ring) Buckets() []BucketInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]BucketInfo, len(r.buckets))
	for i, b := range r.buckets {
		out[i] = BucketInfo{
			Level: b.level, Span: b.span,
			FirstGeneration: b.firstGen, Generation: b.lastGen,
			MinTime: b.minTime, MaxTime: b.maxTime,
			Packets: b.packets, ResidentBytes: b.sk.ResidentBytes(),
		}
	}
	return out
}

// coveringLocked resolves a lookback to the covering bucket set (oldest
// first) under the ceiling semantics. Callers hold r.mu.
func (r *Ring) coveringLocked(lb Lookback) []*bucket {
	bs := r.buckets
	i := 0
	switch {
	case lb.Windows > 0:
		covered := 0
		i = len(bs)
		for i > 0 && covered < lb.Windows {
			i--
			covered += bs[i].span
		}
	case lb.Duration > 0:
		cutoff := r.cfg.Now().Add(-lb.Duration)
		i = len(bs)
		for i > 0 && bs[i-1].maxTime.After(cutoff) {
			i--
		}
	}
	return append([]*bucket(nil), bs[i:]...)
}

// fold resolves the lookback, collects the covering bucket references and
// (if requested) a live snapshot under the ring lock, then SWAR-folds
// them into a pooled scratch sketch outside it: the first source is
// copied in (merging into an empty sketch is the identity) and the rest
// are merged. The caller must hand the scratch back via release. The
// two-phase shape is what makes rotate-during-query atomic: the reference
// set is fixed in one critical section, and buckets are immutable, so the
// fold sees exactly the pre- or post-rotation ring — never a mix.
func (r *Ring) fold(lb Lookback) (*core.Sketch, Coverage, error) {
	r.mu.Lock()
	covering := r.coveringLocked(lb)
	cov := Coverage{Buckets: len(covering)}
	for _, b := range covering {
		cov.Windows += b.span
		cov.Packets += b.packets
	}
	if len(covering) > 0 {
		cov.FirstGeneration = covering[0].firstGen
		cov.LastGeneration = covering[len(covering)-1].lastGen
		cov.From = covering[0].minTime
		cov.To = covering[len(covering)-1].maxTime
	}
	var liveCore *core.Sketch
	if lb.IncludeLive && r.live != nil {
		// The live snapshot is taken inside the same critical section that
		// fixed the bucket set, so a racing Rotate cannot move packets
		// between "closed" and "live" mid-scan.
		var packets uint64
		liveCore, packets = r.live.SnapshotPackets()
		cov.IncludesLive = true
		cov.Packets += packets
		cov.To = r.cfg.Now()
	}
	r.mu.Unlock()

	if len(covering) == 0 {
		if liveCore == nil {
			return nil, cov, ErrEmpty
		}
		return r.scratchFor(liveCore), cov, nil
	}
	sk := r.scratchFor(covering[0].sk)
	for _, b := range covering[1:] {
		if err := sk.Merge(b.sk); err != nil {
			r.release(sk)
			return nil, cov, fmt.Errorf("window: folding bucket [%d,%d]: %w", b.firstGen, b.lastGen, err)
		}
	}
	if liveCore != nil {
		if err := sk.Merge(liveCore); err != nil {
			r.release(sk)
			return nil, cov, fmt.Errorf("window: folding live window: %w", err)
		}
	}
	return sk, cov, nil
}

// scratchFor returns a scratch sketch holding a copy of first's registers,
// from the pool when possible. CopyFrom verifies each pooled entry against
// first: after a collector-mode geometry change (FileWindow adopts a new
// shape once retention empties the ring) the pool can still hold
// old-geometry sketches, and reusing one would fail every fold until the
// pool happened to drain.
func (r *Ring) scratchFor(first *core.Sketch) *core.Sketch {
	for {
		v := r.scratch.Get()
		if v == nil {
			return first.Clone()
		}
		if sk := v.(*core.Sketch); sk.CopyFrom(first) == nil {
			return sk
		}
		// Stale geometry: drop it and try the next pooled entry.
	}
}

// release hands a fold scratch back to the pool.
func (r *Ring) release(sk *core.Sketch) { r.scratch.Put(sk) }

// SnapshotOverTime returns a caller-owned sketch holding the exact fold
// of the lookback's covering windows — the primitive every other
// over-time query is defined in terms of.
func (r *Ring) SnapshotOverTime(lb Lookback) (*core.Sketch, Coverage, error) {
	sk, cov, err := r.fold(lb)
	if err != nil {
		return nil, cov, err
	}
	out := sk.Clone()
	r.release(sk)
	return out, cov, nil
}

// QueryOverTime answers the per-flow count query over the lookback. Like
// the single-window estimate it is one-sided over the covered stream.
func (r *Ring) QueryOverTime(key []byte, lb Lookback) (uint64, Coverage, error) {
	sk, cov, err := r.fold(lb)
	if err != nil {
		return 0, cov, err
	}
	est := sk.Estimate(key)
	r.release(sk)
	return est, cov, nil
}

// CardinalityOverTime estimates distinct flows over the lookback by
// Linear Counting on the folded sketch (§3.3): distinct across windows,
// not a per-window sum, because the fold is the union stream's sketch.
func (r *Ring) CardinalityOverTime(lb Lookback) (float64, Coverage, error) {
	sk, cov, err := r.fold(lb)
	if err != nil {
		return 0, cov, err
	}
	card := sk.Cardinality()
	r.release(sk)
	return card, cov, nil
}

// HeavyHittersOverTime scans candidate keys over the lookback and returns
// those whose folded estimates reach threshold. Like the single-window
// query, candidates come from the application.
func (r *Ring) HeavyHittersOverTime(candidates [][]byte, threshold uint64, lb Lookback) (map[string]uint64, Coverage, error) {
	sk, cov, err := r.fold(lb)
	if err != nil {
		return nil, cov, err
	}
	hh := make(map[string]uint64)
	for _, k := range candidates {
		if est := sk.Estimate(k); est >= threshold {
			hh[string(k)] = est
		}
	}
	r.release(sk)
	return hh, cov, nil
}

// FSDOverTime runs the control-plane EM estimator (§4.2) over the folded
// lookback: dist[j] estimates the number of flows with exactly j packets
// across the covered windows.
func (r *Ring) FSDOverTime(lb Lookback, opt *fcm.EMOptions) ([]float64, Coverage, error) {
	sk, cov, err := r.fold(lb)
	if err != nil {
		return nil, cov, err
	}
	dist, runErr := fsdOf(sk, opt)
	r.release(sk)
	if runErr != nil {
		return nil, cov, runErr
	}
	return dist, cov, nil
}

// fsdOf runs the control-plane EM estimator over an already-folded sketch
// — shared by FSDOverTime and the HTTP handler, which derives every field
// of one response from a single fold.
func fsdOf(sk *core.Sketch, opt *fcm.EMOptions) ([]float64, error) {
	var o fcm.EMOptions
	if opt != nil {
		o = *opt
	}
	res, err := em.Run(em.Config{
		W1:          sk.LeafWidth(),
		Theta1:      sk.StageMax(0),
		Iterations:  o.Iterations,
		Workers:     o.Workers,
		OnIteration: o.OnIteration,
	}, sk.VirtualCounters())
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	return res.Dist, nil
}

// EntropyOverTime estimates the flow entropy of the lookback from the EM
// distribution: H = −Σ_k n_k·(k/m)·log2(k/m) (§4.4).
func (r *Ring) EntropyOverTime(lb Lookback, opt *fcm.EMOptions) (float64, Coverage, error) {
	dist, cov, err := r.FSDOverTime(lb, opt)
	if err != nil {
		return 0, cov, err
	}
	return fcm.EntropyOf(dist), cov, nil
}

// Stats is a point-in-time summary of the ring for telemetry.
type Stats struct {
	// Buckets and SpanWindows describe occupancy: retained buckets and
	// the original windows they cover.
	Buckets     int
	SpanWindows int
	// MaxLevel is the deepest coarsening level present (-1 when empty).
	MaxLevel int
	// Generation is the newest closed window's ordinal.
	Generation uint64
	// Rotations, CoarsenMerges and DroppedWindows are lifetime counters.
	Rotations      uint64
	CoarsenMerges  uint64
	DroppedWindows uint64
	// ResidentBytes is the counter storage held by retained buckets.
	ResidentBytes int
}

// Stats returns the ring's current statistics.
func (r *Ring) Stats() Stats {
	r.mu.Lock()
	st := Stats{
		Buckets:    len(r.buckets),
		MaxLevel:   -1,
		Generation: r.gen,
	}
	for _, b := range r.buckets {
		st.SpanWindows += b.span
		st.ResidentBytes += b.sk.ResidentBytes()
		if b.level > st.MaxLevel {
			st.MaxLevel = b.level
		}
	}
	r.mu.Unlock()
	st.Rotations = r.rotations.Load()
	st.CoarsenMerges = r.coarsenMerges.Load()
	st.DroppedWindows = r.droppedWindows.Load()
	return st
}

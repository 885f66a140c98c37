package difftest

import (
	"fmt"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/window"
)

// Windowed invariants. The headline claim of the temporal layer is that
// FCM's exact merge (§5) makes over-time composition lossless: any
// over-time query against the ring must equal the same query against a
// serial ingest of the concatenated covering windows — bit-exact, not
// approximately. Coverage reports exactly which windows a fold ceil'd to,
// so the reference is reconstructed from the ring's own answer and the
// invariant stays honest under exponential-histogram coarsening.

// newRing builds a live ring for this geometry. The clock is a
// deterministic fake so trials never depend on wall time.
func newRing(g Geometry, shards, spanCap, maxWindows int) (*window.Ring, error) {
	return window.New(window.Config{
		Sketch:         g.FCMConfig(),
		Shards:         shards,
		SpanCap:        spanCap,
		MaxWindows:     maxWindows,
		BucketDuration: time.Second,
		Now:            fakeClock(),
	})
}

// fakeClock returns a deterministic monotonic clock: every call advances
// one second from a fixed epoch.
func fakeClock() func() time.Time {
	t := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// serialWindows ingests windows[from..to] (1-based generation ordinals,
// inclusive) serially into one sketch — the reference for a fold whose
// Coverage reports that generation range.
func serialWindows(g Geometry, parts []*Workload, from, to uint64) (*core.Sketch, error) {
	s, err := g.NewCore()
	if err != nil {
		return nil, err
	}
	for gen := from; gen <= to; gen++ {
		if gen == 0 || int(gen) > len(parts) {
			return nil, fmt.Errorf("coverage generation %d outside 1..%d", gen, len(parts))
		}
		for _, k := range parts[gen-1].Keys {
			s.Update(k, 1)
		}
	}
	return s, nil
}

// ringOf cuts w into n windows and ingests them through a ring, rotating
// after each, returning the ring and the window partition.
func ringOf(g Geometry, w *Workload, windows, shards, spanCap int) (*window.Ring, []*Workload, error) {
	r, err := newRing(g, shards, spanCap, 4*windows+4)
	if err != nil {
		return nil, nil, err
	}
	parts := w.Windows(windows)
	for _, p := range parts {
		for _, k := range p.Keys {
			if err := r.Update(k, 1); err != nil {
				return nil, nil, err
			}
		}
		if err := r.Rotate(); err != nil {
			return nil, nil, err
		}
	}
	return r, parts, nil
}

// CheckWindowFoldEqualsSerial is the core windowed invariant: for every
// lookback depth, SnapshotOverTime must be register-bit-identical to a
// serial ingest of the covering windows Coverage reports — and the
// ceiling must never cover fewer windows than requested while that much
// history is retained.
func CheckWindowFoldEqualsSerial(g Geometry, w *Workload, windows, shards, spanCap int) error {
	r, parts, err := ringOf(g, w, windows, shards, spanCap)
	if err != nil {
		return err
	}
	for lb := 1; lb <= windows; lb++ {
		got, cov, err := r.SnapshotOverTime(window.LastWindows(lb))
		if err != nil {
			return fmt.Errorf("lookback %d: %w", lb, err)
		}
		if cov.Windows < lb {
			return fmt.Errorf("lookback %d: ceiling covered only %d windows", lb, cov.Windows)
		}
		if cov.LastGeneration != uint64(windows) {
			return fmt.Errorf("lookback %d: newest covered generation %d, want %d",
				lb, cov.LastGeneration, windows)
		}
		ref, err := serialWindows(g, parts, cov.FirstGeneration, cov.LastGeneration)
		if err != nil {
			return fmt.Errorf("lookback %d: building reference: %w", lb, err)
		}
		if err := requireEqual(fmt.Sprintf("over-time fold (lookback %d, covering [%d,%d])",
			lb, cov.FirstGeneration, cov.LastGeneration), ref, got); err != nil {
			return err
		}
	}
	return nil
}

// CheckWindowLiveFoldEqualsSerial asserts the live-edge semantics: a
// full-history fold with IncludeLive equals serial ingest of the whole
// stream, with part of it still sitting un-rotated in the live window.
func CheckWindowLiveFoldEqualsSerial(g Geometry, w *Workload, windows, shards, spanCap int) error {
	r, err := newRing(g, shards, spanCap, 4*windows+4)
	if err != nil {
		return err
	}
	parts := w.Windows(windows)
	// Rotate all but the last part; the last stays live.
	for i, p := range parts {
		for _, k := range p.Keys {
			if err := r.Update(k, 1); err != nil {
				return err
			}
		}
		if i < len(parts)-1 {
			if err := r.Rotate(); err != nil {
				return err
			}
		}
	}
	ref, err := Serial(g, w)
	if err != nil {
		return err
	}
	got, cov, err := r.SnapshotOverTime(window.LastWindows(0).WithLive())
	if err != nil {
		return err
	}
	if !cov.IncludesLive {
		return fmt.Errorf("live fold did not report IncludesLive")
	}
	return requireEqual("over-time fold (all closed + live)", ref, got)
}

// CheckWindowQueriesEqualFold asserts every query method answers from the
// same fold SnapshotOverTime returns: per-key estimates, cardinality and
// heavy hitters must match querying the fold sketch directly.
func CheckWindowQueriesEqualFold(g Geometry, w *Workload, windows, shards, spanCap int, lookback int) error {
	r, _, err := ringOf(g, w, windows, shards, spanCap)
	if err != nil {
		return err
	}
	lb := window.LastWindows(lookback)
	fold, cov, err := r.SnapshotOverTime(lb)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	var candidates [][]byte
	var threshold uint64 = 1
	for _, k := range w.Keys {
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		candidates = append(candidates, k)
		est, qcov, err := r.QueryOverTime(k, lb)
		if err != nil {
			return err
		}
		if qcov != cov {
			return fmt.Errorf("QueryOverTime coverage %+v deviates from fold coverage %+v", qcov, cov)
		}
		if want := fold.Estimate(k); est != want {
			return fmt.Errorf("QueryOverTime(%x) = %d, fold says %d", k, est, want)
		}
		if est > threshold {
			threshold = est // highest estimate: a non-trivial HH threshold below
		}
	}
	card, _, err := r.CardinalityOverTime(lb)
	if err != nil {
		return err
	}
	if want := fold.Cardinality(); card != want {
		return fmt.Errorf("CardinalityOverTime = %v, fold says %v", card, want)
	}
	threshold = threshold/2 + 1
	hh, _, err := r.HeavyHittersOverTime(candidates, threshold, lb)
	if err != nil {
		return err
	}
	for _, k := range candidates {
		est := fold.Estimate(k)
		got, reported := hh[string(k)]
		if (est >= threshold) != reported {
			return fmt.Errorf("HeavyHittersOverTime(%x): reported=%v but fold estimate %d vs threshold %d",
				k, reported, est, threshold)
		}
		if reported && got != est {
			return fmt.Errorf("HeavyHittersOverTime(%x) = %d, fold says %d", k, got, est)
		}
	}
	return nil
}

// CheckWindowCoarsenInvariance asserts the fold is independent of the
// coarsening structure: the same window stream through rings with
// different span caps — including forced Coarsen compactions — yields
// bit-identical full-history folds. Coarsening changes which buckets
// exist, never what they sum to.
func CheckWindowCoarsenInvariance(g Geometry, w *Workload, windows, shards int) error {
	parts := w.Windows(windows)
	build := func(spanCap int, forceEvery int) (*core.Sketch, error) {
		r, err := newRing(g, shards, spanCap, 4*windows+4)
		if err != nil {
			return nil, err
		}
		for i, p := range parts {
			for _, k := range p.Keys {
				if err := r.Update(k, 1); err != nil {
					return nil, err
				}
			}
			if err := r.Rotate(); err != nil {
				return nil, err
			}
			if forceEvery > 0 && (i+1)%forceEvery == 0 {
				r.Coarsen()
			}
		}
		sk, _, err := r.SnapshotOverTime(window.LastWindows(0))
		return sk, err
	}
	ref, err := build(windows+1, 0) // cap beyond window count: no coarsening at all
	if err != nil {
		return err
	}
	for _, tc := range []struct {
		name       string
		spanCap    int
		forceEvery int
	}{
		{"spancap=1", 1, 0},
		{"spancap=2", 2, 0},
		{"spancap=3+forced", 3, 2},
	} {
		got, err := build(tc.spanCap, tc.forceEvery)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		if err := requireEqual("coarsening variant "+tc.name, ref, got); err != nil {
			return err
		}
	}
	return nil
}

// CheckWindowLookbackMonotonic asserts per-key estimates never decrease
// as the lookback grows: a longer lookback folds a superset of windows,
// and FCM estimates are monotone under merge.
func CheckWindowLookbackMonotonic(g Geometry, w *Workload, windows, shards, spanCap int) error {
	r, _, err := ringOf(g, w, windows, shards, spanCap)
	if err != nil {
		return err
	}
	prev := make(map[string]uint64)
	for lb := 1; lb <= windows; lb++ {
		for _, k := range w.Keys {
			est, _, err := r.QueryOverTime(k, window.LastWindows(lb))
			if err != nil {
				return err
			}
			if p, ok := prev[string(k)]; ok && est < p {
				return fmt.Errorf("estimate for %x dropped from %d to %d when lookback grew to %d",
					k, p, est, lb)
			}
			prev[string(k)] = est
		}
	}
	// The live edge is a superset of every closed-only lookback too.
	for _, k := range w.Keys {
		est, _, err := r.QueryOverTime(k, window.LastWindows(0).WithLive())
		if err != nil {
			return err
		}
		if p := prev[string(k)]; est < p {
			return fmt.Errorf("estimate for %x dropped from %d to %d when live was included",
				k, p, est)
		}
	}
	return nil
}

// CheckWindowRotateAtomic asserts a query racing Rotate returns either
// the pre- or the post-rotation view, never a torn one: the closed-only
// full fold concurrent with a rotation must equal the fold over the first
// n-1 windows or over all n, bit-exactly.
func CheckWindowRotateAtomic(g Geometry, w *Workload, windows, shards, spanCap int) error {
	parts := w.Windows(windows)
	pre, err := serialWindows(g, parts, 1, uint64(windows-1))
	if err != nil {
		return err
	}
	post, err := serialWindows(g, parts, 1, uint64(windows))
	if err != nil {
		return err
	}
	r, err := newRing(g, shards, spanCap, 4*windows+4)
	if err != nil {
		return err
	}
	for i, p := range parts {
		for _, k := range p.Keys {
			if err := r.Update(k, 1); err != nil {
				return err
			}
		}
		if i < len(parts)-1 {
			if err := r.Rotate(); err != nil {
				return err
			}
		}
	}
	// The last window is still live. Race the rotation against the query.
	type result struct {
		sk  *core.Sketch
		err error
	}
	done := make(chan result, 1)
	go func() {
		sk, _, err := r.SnapshotOverTime(window.LastWindows(0))
		done <- result{sk, err}
	}()
	rotErr := r.Rotate()
	got := <-done
	if rotErr != nil {
		return rotErr
	}
	if got.err != nil {
		return got.err
	}
	if pre.FirstRegisterDiff(got.sk) == "" || post.FirstRegisterDiff(got.sk) == "" {
		return nil
	}
	return fmt.Errorf("rotate-racing fold is torn: matches neither the %d- nor the %d-window view",
		windows-1, windows)
}

// CheckWindowAll runs the whole windowed battery for one (geometry,
// workload) pair, deriving window/shard/span-cap variety from the seed
// like CheckAll does.
func CheckWindowAll(g Geometry, w *Workload, seed int64) error {
	windows := 3 + int(uint64(seed)%6)       // 3..8 windows
	shards := 1 + int((uint64(seed)>>16)%4)  // 1..4 shards
	spanCap := 1 + int((uint64(seed)>>32)%3) // 1..3 per-level buckets
	lookback := 1 + int((uint64(seed)>>40)%uint64(windows))
	if err := CheckWindowFoldEqualsSerial(g, w, windows, shards, spanCap); err != nil {
		return err
	}
	if err := CheckWindowLiveFoldEqualsSerial(g, w, windows, shards, spanCap); err != nil {
		return err
	}
	if err := CheckWindowQueriesEqualFold(g, w, windows, shards, spanCap, lookback); err != nil {
		return err
	}
	if err := CheckWindowCoarsenInvariance(g, w, windows, shards); err != nil {
		return err
	}
	if err := CheckWindowLookbackMonotonic(g, w, windows, shards, spanCap); err != nil {
		return err
	}
	return CheckWindowRotateAtomic(g, w, windows, shards, spanCap)
}

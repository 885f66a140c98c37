package window

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/trace"
)

// pinWindow returns window g's packets: a heavy flow every window shares,
// a flow shared with the neighbouring windows and a run of flows of this
// window alone, so folds of different window sets differ in every query.
// The heavy flow stays below the leaf capacity over any retained lookback,
// which keeps EM cheap enough to answer often under the race detector.
func pinWindow(g uint64) [][]byte {
	var ks [][]byte
	for i := uint64(0); i < 6+g%5; i++ {
		ks = append(ks, key(1))
	}
	for i := uint64(0); i < 3; i++ {
		ks = append(ks, key(uint32(100+g/2)))
	}
	for f := uint64(0); f < 20+g%5; f++ {
		for p := uint64(0); p <= f%4; p++ {
			ks = append(ks, key(uint32(1000+g*64+f)))
		}
	}
	return ks
}

// pinRef is the serial re-ingest of a window range — the sketch a single
// writer would hold after ingesting its windows of pinWindow in order —
// and that sketch's EM distribution.
type pinRef struct {
	sk  *core.Sketch
	fsd []float64
}

// pinRefs builds, and caches, the references of window ranges.
type pinRefs struct {
	mu   sync.Mutex
	cfg  engine.SketchConfig
	emo  *em.Options
	refs map[[2]uint64]pinRef
}

func (p *pinRefs) get(first, last uint64) (pinRef, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ref, ok := p.refs[[2]uint64{first, last}]; ok {
		return ref, nil
	}
	s, err := core.New(engine.CoreConfig(p.cfg))
	if err != nil {
		return pinRef{}, err
	}
	for g := first; g <= last; g++ {
		for _, k := range pinWindow(g) {
			s.Update(k, 1)
		}
	}
	res, err := em.RunSketch(s, p.emo)
	if err != nil {
		return pinRef{}, err
	}
	ref := pinRef{sk: s, fsd: res.Dist}
	p.refs[[2]uint64{first, last}] = ref
	return ref, nil
}

// emEqual compares EM outputs of equal registers bit for bit: EM is
// reproducible, so any difference means a recycled or torn bucket.
func emEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestWindowPinsUnderRecycling races writers and Rotate against every
// fold kind and ExportFrames on a ring that coarsens on every other
// rotation (SpanCap 1) and drops buckets within a few windows, so buckets
// leave the ring — and their sketches are recycled or merged into — while
// readers hold them. Each window is written by two concurrent writers
// (batched and per-key) before it is rotated, so its contents are known:
// every closed answer must equal the same query on a serial re-ingest of
// the windows its Coverage names. Folds that include the live window race
// the writers and are only required to succeed.
func TestWindowPinsUnderRecycling(t *testing.T) {
	cfg := Config{
		Sketch:     engine.SketchConfig{LeafWidth: 512},
		Shards:     2,
		MaxWindows: 6,
		SpanCap:    1,
		Now:        testClock(),
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	emo := &em.Options{Iterations: 1, Workers: 1}
	refs := &pinRefs{cfg: r.Config().Sketch, emo: emo, refs: make(map[[2]uint64]pinRef)}
	// The ring rotates windows times, each rotation waiting for a fresh
	// answer, so readers and rotations interleave however the scheduler
	// favours either.
	const windows = 400

	// check verifies one closed answer's coverage and returns the serial
	// re-ingest of the windows it names.
	check := func(kind string, lb Lookback, cov Coverage) *pinRef {
		if cov.Buckets == 0 || cov.Windows != int(cov.LastGeneration-cov.FirstGeneration+1) {
			t.Errorf("%s %+v: coverage %+v is not one run of whole windows", kind, lb, cov)
			return nil
		}
		var packets uint64
		for g := cov.FirstGeneration; g <= cov.LastGeneration; g++ {
			packets += uint64(len(pinWindow(g)))
		}
		if cov.Packets != packets {
			t.Errorf("%s %+v: coverage %+v counts %d packets, windows hold %d", kind, lb, cov, cov.Packets, packets)
		}
		ref, err := refs.get(cov.FirstGeneration, cov.LastGeneration)
		if err != nil {
			t.Error(err)
			return nil
		}
		return &ref
	}
	mismatch := func(kind string, lb Lookback, cov Coverage, got, want any) {
		t.Errorf("%s %+v over generations [%d,%d]: got %v, serial re-ingest gives %v",
			kind, lb, cov.FirstGeneration, cov.LastGeneration, got, want)
	}
	candidates := [][]byte{key(1), key(100), key(101), key(1000 + 64)}

	queries := []func(lb Lookback) error{
		func(lb Lookback) error {
			got, cov, err := r.SnapshotOverTime(lb)
			if err == nil && !lb.IncludeLive {
				if ref := check("snapshot", lb, cov); ref != nil && !got.EqualRegisters(ref.sk) {
					mismatch("snapshot", lb, cov, "other registers", "these")
				}
			}
			return err
		},
		func(lb Lookback) error {
			got, cov, err := r.QueryOverTime(key(1), lb)
			if err == nil && !lb.IncludeLive {
				if ref := check("estimate", lb, cov); ref != nil && got != ref.sk.Estimate(key(1)) {
					mismatch("estimate", lb, cov, got, ref.sk.Estimate(key(1)))
				}
			}
			return err
		},
		func(lb Lookback) error {
			got, cov, err := r.CardinalityOverTime(lb)
			if err == nil && !lb.IncludeLive {
				if ref := check("cardinality", lb, cov); ref != nil && got != ref.sk.Cardinality() {
					mismatch("cardinality", lb, cov, got, ref.sk.Cardinality())
				}
			}
			return err
		},
		func(lb Lookback) error {
			got, cov, err := r.HeavyHittersOverTime(candidates, 3, lb)
			if err == nil && !lb.IncludeLive {
				if ref := check("heavy hitters", lb, cov); ref != nil {
					want := make(map[string]uint64)
					for _, k := range candidates {
						if est := ref.sk.Estimate(k); est >= 3 {
							want[string(k)] = est
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						mismatch("heavy hitters", lb, cov, got, want)
					}
				}
			}
			return err
		},
		func(lb Lookback) error {
			got, cov, err := r.FSDOverTime(lb, emo)
			if err == nil && !lb.IncludeLive {
				if ref := check("fsd", lb, cov); ref != nil && !slices.EqualFunc(got, ref.fsd, emEqual) {
					mismatch("fsd", lb, cov, got, ref.fsd)
				}
			}
			return err
		},
		func(lb Lookback) error {
			got, cov, err := r.EntropyOverTime(lb, emo)
			if err == nil && !lb.IncludeLive {
				if ref := check("entropy", lb, cov); ref != nil && !emEqual(got, em.Entropy(ref.fsd)) {
					mismatch("entropy", lb, cov, got, em.Entropy(ref.fsd))
				}
			}
			return err
		},
		func(lb Lookback) error {
			frames, err := r.ExportFrames(lb)
			for _, f := range frames {
				meta, _, derr := collect.DecodeWindow(f)
				if derr != nil {
					return derr
				}
				cov := Coverage{Buckets: 1, Windows: int(meta.Span), Packets: meta.Packets,
					FirstGeneration: meta.FirstGeneration, LastGeneration: meta.Generation}
				ref := check("frame", lb, cov)
				if ref == nil {
					continue
				}
				want, eerr := collect.EncodeWindow(meta, collect.TakeSnapshot(ref.sk))
				if eerr != nil {
					return eerr
				}
				if !bytes.Equal(f, want) {
					mismatch("frame", lb, cov, "other bytes", "these")
				}
			}
			return err
		},
	}
	lookbacks := []Lookback{LastWindows(1), LastWindows(2), LastWindows(4), LastWindows(0), LastWindows(3).WithLive()}

	var stop atomic.Bool
	var readers sync.WaitGroup
	var answers atomic.Uint64
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := w; !stop.Load(); i++ {
				q := queries[i%len(queries)]
				lb := lookbacks[(i/len(queries))%len(lookbacks)]
				if err := q(lb); err != nil && err != ErrEmpty {
					t.Errorf("query %d %+v: %v", i%len(queries), lb, err)
					stop.Store(true)
					return
				}
				answers.Add(1)
			}
		}(w)
	}

	for g := uint64(1); g <= windows && !stop.Load(); g++ {
		ks := pinWindow(g)
		half := len(ks) / 2
		var writers sync.WaitGroup
		writers.Add(2)
		go func() {
			defer writers.Done()
			for i := 0; i < half; i += 8 {
				if err := r.UpdateBatch(ks[i:min(i+8, half)], 1); err != nil {
					t.Error(err)
				}
			}
		}()
		go func() {
			defer writers.Done()
			for _, k := range ks[half:] {
				if err := r.Update(k, 1); err != nil {
					t.Error(err)
				}
			}
		}()
		writers.Wait()
		for seen := answers.Load(); answers.Load() == seen && !stop.Load(); {
			runtime.Gosched()
		}
		if err := r.Rotate(); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	readers.Wait()
	st := r.Stats()
	t.Logf("%d windows, %d coarsening merges, %d dropped windows, %d answers",
		st.Generation, st.CoarsenMerges, st.DroppedWindows, answers.Load())
	if st.CoarsenMerges == 0 || st.DroppedWindows == 0 || answers.Load() < windows {
		t.Fatalf("ring coarsened %d times, dropped %d windows and answered %d queries: test exercises nothing",
			st.CoarsenMerges, st.DroppedWindows, answers.Load())
	}
}

// TestFiledWindowsStayCallers: windows filed through FileWindow belong to
// the caller. Coarsening must not merge into them and retention must not
// recycle them, so after a collector ring has coarsened and dropped every
// filed window, and its queries have cycled the pool, each filed sketch
// still holds exactly the registers it was filed with.
func TestFiledWindowsStayCallers(t *testing.T) {
	r := NewCollector(Config{MaxWindows: 4, SpanCap: 1, Now: testClock()})
	var filed, want []*core.Sketch
	now := time.Unix(1_700_000_000, 0)
	for g := uint64(1); g <= 24; g++ {
		s := newSketch(t, engine.SketchConfig{LeafWidth: 512})
		for _, k := range pinWindow(g) {
			s.Update(k, 1)
		}
		filed, want = append(filed, s), append(want, s.Clone())
		if err := r.FileWindow(s, now, now, uint64(len(pinWindow(g)))); err != nil {
			t.Fatal(err)
		}
		for _, lb := range []Lookback{LastWindows(1), LastWindows(0)} {
			if _, _, err := r.CardinalityOverTime(lb); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := r.Stats(); st.CoarsenMerges == 0 || st.DroppedWindows == 0 {
		t.Fatalf("ring coarsened %d times and dropped %d windows: test exercises nothing",
			st.CoarsenMerges, st.DroppedWindows)
	}
	for i := range filed {
		if !filed[i].EqualRegisters(want[i]) {
			t.Fatalf("filed window %d was written by the ring", i+1)
		}
	}
}

// TestLiveRingFilesOnlyEngineGeometry: a live ring's buckets must merge
// with its live window, and the sketches it recycles feed its engine's
// shards, so FileWindow checks a filed window against the engine even
// before the first bucket exists.
func TestLiveRingFilesOnlyEngineGeometry(t *testing.T) {
	r := testRing(t, 8, 2)
	other := newSketch(t, engine.SketchConfig{LeafWidth: 256})
	now := time.Unix(1_700_000_000, 0)
	if err := r.FileWindow(other, now, now, 0); err == nil || !strings.Contains(err.Error(), "geometry mismatch") {
		t.Fatalf("live ring filed a window of another geometry: err %v", err)
	}
	same := newSketch(t, r.Config().Sketch)
	same.Update(key(3), 2)
	if err := r.FileWindow(same, now, now, 2); err != nil {
		t.Fatal(err)
	}
	if est, _, err := r.QueryOverTime(key(3), LastWindows(0).WithLive()); err != nil || est != 2 {
		t.Fatalf("fold of the filed and live windows = %d (err %v), want 2", est, err)
	}
}

// paperRing builds a warm paper-geometry ring with two shards and returns
// it with two window loads of shard sketches to merge in per window.
func paperRing(tb testing.TB, maxWindows, windowPackets int) (*Ring, [][2]*core.Sketch) {
	tb.Helper()
	r, err := New(Config{Sketch: engine.SketchConfig{MemoryBytes: 1 << 20}, Shards: 2, MaxWindows: maxWindows, Now: testClock()})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := trace.CAIDALike(2*windowPackets, 1)
	if err != nil {
		tb.Fatal(err)
	}
	loads := make([][2]*core.Sketch, 2)
	for w := range loads {
		for s := range loads[w] {
			sk := newSketch(tb, r.Config().Sketch)
			// Shard s of window w holds every other packet of the window.
			for i := w*windowPackets + s; i < (w+1)*windowPackets; i += 2 {
				sk.Update(tr.Keys[tr.Order[i]].Bytes(), 1)
			}
			loads[w][s] = sk
		}
	}
	return r, loads
}

// fillLive merges one window load into the live shards: the registers a
// 2-writer ingest of the window's packets would leave.
func fillLive(tb testing.TB, r *Ring, load [2]*core.Sketch) {
	tb.Helper()
	for s, sk := range load {
		if err := r.live.MergeShard(s, sk, 0); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestRotateFoldAllocs: once warm, rotation and the freshness answer
// allocate no register memory. Rotate takes its fresh shards from dead
// ones, coarsening merges in place, retention recycles, and the fold's
// scratch is pooled — so Rotate plus CardinalityOverTime(LastWindows(1))
// on a paper-geometry (1 MiB) 2-shard ring allocates under 64 KiB per
// window, where allocating sketches costs megabytes. sync.Pool drops
// entries at random under the race detector, so the test is skipped there.
func TestRotateFoldAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	const maxWindows, windows = 16, 64
	r, loads := paperRing(t, maxWindows, 1<<14)
	step := func(w int) {
		fillLive(t, r, loads[w%len(loads)])
		if err := r.Rotate(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := r.CardinalityOverTime(LastWindows(1)); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 3*maxWindows; w++ {
		step(w)
	}
	// Collect the warm-up's garbage so no collection is due while the
	// windows are measured (two would empty the pools), then refill.
	runtime.GC()
	for w := 0; w < maxWindows; w++ {
		step(w)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for w := 0; w < windows; w++ {
		step(w)
	}
	runtime.ReadMemStats(&after)
	perWindow := (after.TotalAlloc - before.TotalAlloc) / windows
	t.Logf("%d B allocated per window", perWindow)
	if perWindow >= 64<<10 {
		t.Fatalf("Rotate + CardinalityOverTime allocate %d B per window, want < 64 KiB", perWindow)
	}
}

// BenchmarkRingRotate measures Ring.Rotate alone on the paper geometry
// (1 MiB per sketch) with two shards and 256 Ki-packet windows: the
// engine's shard swap and merge, coarsening and retention. Each window's
// registers are merged into the live shards outside the timer, and the
// ring is rotated past its retention first, so B/op is the steady state.
func BenchmarkRingRotate(b *testing.B) {
	const maxWindows = 16
	r, loads := paperRing(b, maxWindows, 1<<18)
	for w := 0; w < 2*maxWindows; w++ {
		fillLive(b, r, loads[w%len(loads)])
		if err := r.Rotate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillLive(b, r, loads[i%len(loads)])
		b.StartTimer()
		if err := r.Rotate(); err != nil {
			b.Fatal(err)
		}
	}
}

package window

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/telemetry"
)

// newSketch builds an empty sketch of cfg, defaults applied — the
// sketch fcm.NewSketch(cfg) wraps.
func newSketch(tb testing.TB, cfg engine.SketchConfig) *core.Sketch {
	tb.Helper()
	sk, err := core.New(engine.CoreConfig(engine.WithDefaults(cfg)))
	if err != nil {
		tb.Fatal(err)
	}
	return sk
}

// testClock returns a deterministic monotonic clock: every call advances
// one second from a fixed epoch.
func testClock() func() time.Time {
	t := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		t = t.Add(time.Second)
		return t
	}
}

// testRing builds a small live ring with a deterministic clock.
func testRing(t *testing.T, maxWindows, spanCap int) *Ring {
	t.Helper()
	r, err := New(Config{
		Sketch:         engine.SketchConfig{LeafWidth: 512},
		MaxWindows:     maxWindows,
		SpanCap:        spanCap,
		BucketDuration: time.Second,
		Now:            testClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// key returns a 4-byte key for flow id f.
func key(f uint32) []byte {
	k := make([]byte, 4)
	binary.BigEndian.PutUint32(k, f)
	return k
}

// fillWindows ingests perWindow packets of flow 1 into each of n windows,
// rotating after each.
func fillWindows(t *testing.T, r *Ring, n, perWindow int) {
	t.Helper()
	for w := 0; w < n; w++ {
		for p := 0; p < perWindow; p++ {
			if err := r.Update(key(1), 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowPacketsExactPastRootSaturation pins the engine's exact packet
// count as the ring's source: 1000 packets of one flow saturate the root
// of {2,3,4}-bit trees, where the sketch's own total stalls at a floor of
// 22, yet Coverage and the filed bucket report all 1000 — live, and after
// Rotate. Half the packets arrive per key, half through UpdateBatch.
func TestWindowPacketsExactPastRootSaturation(t *testing.T) {
	r, err := New(Config{
		Sketch: engine.SketchConfig{LeafWidth: 64, Widths: []int{2, 3, 4}},
		Shards: 2,
		Now:    testClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := r.Update(key(1), 1); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([][]byte, 100)
	for i := range batch {
		batch[i] = key(1)
	}
	for i := 0; i < 5; i++ {
		if err := r.UpdateBatch(batch, 1); err != nil {
			t.Fatal(err)
		}
	}
	live, _, err := r.SnapshotOverTime(LastWindows(0).WithLive())
	if err != nil {
		t.Fatal(err)
	}
	if floor := live.TotalCount(0); floor >= 1000 {
		t.Fatalf("root did not saturate: TotalCount(0) = %d", floor)
	}
	if _, cov, err := r.QueryOverTime(key(1), LastWindows(0).WithLive()); err != nil || cov.Packets != 1000 {
		t.Fatalf("live coverage packets %d (err %v), want 1000", cov.Packets, err)
	}
	if err := r.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, cov, err := r.QueryOverTime(key(1), LastWindows(0)); err != nil || cov.Packets != 1000 {
		t.Fatalf("filed coverage packets %d (err %v), want 1000", cov.Packets, err)
	}
	if b := r.Buckets(); len(b) != 1 || b[0].Packets != 1000 {
		t.Fatalf("buckets %+v, want one holding 1000 packets", b)
	}
}

// TestWindowPacketsConservedUnderRotate races writers — per-key and
// batched — against Rotate: every packet sent must be counted in exactly
// one window, so the filed buckets plus the live window hold them all.
func TestWindowPacketsConservedUnderRotate(t *testing.T) {
	r, err := New(Config{
		Sketch:     engine.SketchConfig{LeafWidth: 512},
		Shards:     3,
		MaxWindows: 1 << 20, // retention never drops a window here
		Now:        testClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds = 4, 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := [][]byte{key(uint32(w)), key(7), key(uint32(w + 100))}
			for i := 0; i < rounds; i++ {
				if err := r.Update(key(uint32(i%64)), uint64(1+i%3)); err != nil {
					t.Error(err)
					return
				}
				if err := r.UpdateBatch(batch, 2); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for rotating := true; rotating; {
		select {
		case <-done:
			rotating = false
		default:
			if err := r.Rotate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var perWriter uint64
	for i := 0; i < rounds; i++ {
		perWriter += uint64(1+i%3) + 3*2
	}
	sent := writers * perWriter

	// Before the final Rotate the packets sit in filed buckets plus the
	// live window; after it, in filed buckets alone.
	_, cov, err := r.SnapshotOverTime(LastWindows(0).WithLive())
	if err != nil {
		t.Fatal(err)
	}
	if cov.Packets != sent {
		t.Fatalf("filed + live windows hold %d packets, want %d sent", cov.Packets, sent)
	}
	if err := r.Rotate(); err != nil {
		t.Fatal(err)
	}
	var filed uint64
	for _, b := range r.Buckets() {
		filed += b.Packets
	}
	if filed != sent || r.Stats().DroppedWindows != 0 {
		t.Fatalf("filed buckets hold %d packets, want %d sent", filed, sent)
	}
}

// TestCollectorRejectsGeometryDrift pins collector-mode validation: a
// filed window that cannot merge with the retained buckets — another
// geometry, hash seed, hash mode or counter encoding — must be refused,
// naming the mismatched axis, and queries must keep answering.
func TestCollectorRejectsGeometryDrift(t *testing.T) {
	r := NewCollector(Config{BucketDuration: time.Second, Now: testClock()})
	a := newSketch(t, engine.SketchConfig{LeafWidth: 512, Seed: 1})
	a.Update(key(1), 1)
	now := time.Unix(1_700_000_000, 0)
	if err := r.FileWindow(a, now, now.Add(time.Second), 1); err != nil {
		t.Fatal(err)
	}
	drift := func(cfg engine.SketchConfig) *core.Sketch {
		s := newSketch(t, cfg)
		return s
	}
	flagBit, err := core.New(core.Config{
		K: 8, Trees: 2, Widths: core.DefaultWidths(), LeafWidth: 512,
		Hash:             hashing.NewBobFamily(0xfc3141 ^ 1),
		FlagBitIndicator: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		sk   *core.Sketch
		want string
	}{
		{"geometry", drift(engine.SketchConfig{LeafWidth: 256, Seed: 1}), "geometry mismatch"},
		{"seed", drift(engine.SketchConfig{LeafWidth: 512, Seed: 2}), "hash-seed mismatch"},
		{"hash mode", drift(engine.SketchConfig{LeafWidth: 512, Seed: 1, PerTreeHash: true}), "hash-mode mismatch"},
		{"encoding", flagBit, "encoding mismatch"},
	}
	for _, tc := range cases {
		err := r.FileWindow(tc.sk, now, now.Add(time.Second), 0)
		if err == nil {
			t.Fatalf("%s: ring accepted a window that cannot merge", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		est, cov, err := r.QueryOverTime(key(1), LastWindows(0))
		if err != nil || est != 1 || cov.Windows != 1 {
			t.Fatalf("%s: query after refusal = %d over %+v (err %v), want 1 over 1 window", tc.name, est, cov, err)
		}
	}
	// Updates have no live plane to land in.
	if err := r.Update(key(1), 1); err == nil {
		t.Fatal("collector ring accepted a live update")
	}
}

// TestScratchPoolDiscardsStaleGeometry pins the fold path against stale
// pooled scratch sketches: if the pool holds a sketch of a different
// geometry (a collector ring that adopted a new shape, or any other
// poisoning), scratchFor must discard it and fall back to cloning the
// fold's first source instead of failing every query until the pool
// drains.
func TestScratchPoolDiscardsStaleGeometry(t *testing.T) {
	r := NewCollector(Config{BucketDuration: time.Second, Now: testClock()})
	a := newSketch(t, engine.SketchConfig{LeafWidth: 512})
	a.Update(key(7), 3)
	now := time.Unix(1_700_000_000, 0)
	if err := r.FileWindow(a, now, now.Add(time.Second), 3); err != nil {
		t.Fatal(err)
	}
	stale := newSketch(t, engine.SketchConfig{LeafWidth: 256})
	r.scratch.Put(stale)
	for i := 0; i < 2; i++ { // second query exercises the repopulated pool
		est, cov, err := r.QueryOverTime(key(7), LastWindows(0))
		if err != nil {
			t.Fatalf("query %d with stale pooled scratch: %v", i, err)
		}
		if est != 3 || cov.Windows != 1 {
			t.Fatalf("query %d: estimate %d coverage %+v, want 3 over 1 window", i, est, cov)
		}
	}
}

// TestRetentionDropsOldestWindows pins the retention bound: with
// MaxWindows retained, older windows coarsen and then fall off, the drop
// counter advances, and Coverage reports the truncated range honestly.
func TestRetentionDropsOldestWindows(t *testing.T) {
	const maxW = 8
	r := testRing(t, maxW, 2)
	fillWindows(t, r, 3*maxW, 2)

	st := r.Stats()
	if st.DroppedWindows == 0 {
		t.Fatal("no windows dropped after 3x the retention bound")
	}
	if st.SpanWindows > maxW {
		t.Fatalf("ring retains %d windows, bound is %d", st.SpanWindows, maxW)
	}
	if st.Generation != 3*maxW {
		t.Fatalf("generation %d, want %d", st.Generation, 3*maxW)
	}
	// Asking for more history than retained answers with what exists.
	_, cov, err := r.SnapshotOverTime(LastWindows(2 * maxW))
	if err != nil {
		t.Fatal(err)
	}
	if cov.FirstGeneration == 1 {
		t.Fatal("coverage claims generation 1 after it was dropped")
	}
	if cov.LastGeneration != uint64(3*maxW) {
		t.Fatalf("coverage newest generation %d, want %d", cov.LastGeneration, 3*maxW)
	}
	if cov.Windows != st.SpanWindows {
		t.Fatalf("coverage windows %d, retained %d", cov.Windows, st.SpanWindows)
	}
}

// TestDurationLookback pins the duration edge semantics: a duration
// lookback includes every bucket whose span overlaps [now-d, now] — whole
// buckets (ceiling), never partial ones.
func TestDurationLookback(t *testing.T) {
	r := testRing(t, 64, 3)
	fillWindows(t, r, 6, 1) // 6 one-second windows on the fake clock
	// The fake clock has observed epoch+1 (construction) through epoch+7
	// (sixth rotation); this query observes epoch+8. A 1.1s lookback puts
	// the cutoff at epoch+6.9, so exactly the newest closed bucket
	// (maxTime epoch+7) is covered — whole, per the ceiling rule.
	_, cov, err := r.SnapshotOverTime(Lookback{Duration: 1100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Windows != 1 || cov.FirstGeneration != 6 {
		t.Fatalf("1.1s lookback coverage %+v, want exactly the newest window", cov)
	}
	// A very long lookback covers everything.
	_, cov, err = r.SnapshotOverTime(Lookback{Duration: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if cov.Windows != 6 || cov.FirstGeneration != 1 {
		t.Fatalf("hour lookback coverage %+v, want all 6 windows", cov)
	}
}

// TestHandlerJSONAndFrames drives the HTTP surface end to end: the JSON
// query (coverage, cardinality, per-key estimate, EM entropy/FSD) and the
// FCMW frame export, whose frames must decode back to the ring's buckets.
func TestHandlerJSONAndFrames(t *testing.T) {
	r := testRing(t, 64, 3)
	for w := 0; w < 4; w++ {
		for f := uint32(1); f <= 5; f++ {
			for p := uint32(0); p < f; p++ {
				if err := r.Update(key(f), 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := r.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	h := Handler(r)

	// JSON: full lookback, per-key estimate, 3 EM iterations.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/overtime?key=00000003&em=3", nil))
	if rec.Code != 200 {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	var resp QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Coverage.Windows != 4 || resp.Coverage.FirstGeneration != 1 || resp.Coverage.LastGeneration != 4 {
		t.Fatalf("coverage %+v, want all 4 windows", resp.Coverage)
	}
	if resp.Estimate == nil || *resp.Estimate != 12 {
		t.Fatalf("estimate %v, want 12 (flow 3 over 4 windows)", resp.Estimate)
	}
	if resp.Cardinality < 3 || resp.Cardinality > 8 {
		t.Fatalf("cardinality %v implausible for 5 flows", resp.Cardinality)
	}
	if resp.Entropy == nil || len(resp.FSDHead) == 0 {
		t.Fatal("em=3 did not produce entropy + FSD head")
	}
	if len(resp.Buckets) == 0 {
		t.Fatal("response has no ring occupancy")
	}

	// Frames: every covering bucket as a decodable FCMW frame.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/overtime?format=frames", nil))
	if rec.Code != 200 {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	data := rec.Body.Bytes()
	infos := r.Buckets()
	var frames int
	for len(data) > 0 {
		// Frames are self-delimiting via the body-length field; decode
		// greedily by scanning the declared body length.
		bodyLen := binary.BigEndian.Uint32(data[52:56])
		frameLen := 56 + int(bodyLen) + 4
		meta, snap, err := collect.DecodeWindow(data[:frameLen])
		if err != nil {
			t.Fatalf("frame %d: %v", frames, err)
		}
		info := infos[frames]
		if meta.FirstGeneration != info.FirstGeneration || meta.Generation != info.Generation ||
			meta.Packets != info.Packets || int(meta.Level) != info.Level || int(meta.Span) != info.Span {
			t.Fatalf("frame %d metadata %+v does not match bucket %+v", frames, meta, info)
		}
		if snap.W1 != 512 {
			t.Fatalf("frame %d geometry w1=%d, want 512", frames, snap.W1)
		}
		data = data[frameLen:]
		frames++
	}
	if frames != len(infos) {
		t.Fatalf("exported %d frames, ring holds %d buckets", frames, len(infos))
	}

	// Bad requests are rejected.
	for _, q := range []string{"?windows=-1", "?duration=zzz", "?key=xyz", "?em=999", "?windows=2&duration=1m"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/overtime"+q, nil))
		if rec.Code != 400 {
			t.Errorf("query %q: HTTP %d, want 400", q, rec.Code)
		}
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/overtime", nil))
	if rec.Code != 405 {
		t.Fatalf("POST: HTTP %d, want 405", rec.Code)
	}
}

// TestInstrumentExportsRingSeries pins the telemetry surface: the ring's
// occupancy, coarsening and retention series must appear in a Prometheus
// scrape with live values.
func TestInstrumentExportsRingSeries(t *testing.T) {
	r := testRing(t, 8, 1)
	fillWindows(t, r, 12, 1)
	reg := telemetry.NewRegistry()
	r.Instrument(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	scrape := buf.String()
	for _, series := range []string{
		"fcm_window_buckets",
		"fcm_window_span_windows",
		"fcm_window_max_level",
		"fcm_window_resident_bytes",
		"fcm_window_generation 12",
		"fcm_window_rotations_total 12",
		"fcm_window_coarsen_merges_total",
		"fcm_window_dropped_windows_total",
	} {
		if !strings.Contains(scrape, series) {
			t.Errorf("scrape lacks %q:\n%s", series, scrape)
		}
	}
	if errs := reg.Lint(); len(errs) > 0 {
		t.Fatalf("registry lint: %v", errs)
	}
}

// TestOverTimeQueryFloor is the CI floor on over-time query throughput at
// the 64-bucket lookback: queries fold the coarsened covering set into
// pooled scratch, so even deep lookbacks must sustain well over 100
// queries/s. The bound is generous (the measured rate is ~1000x higher)
// so it only trips on an algorithmic regression — e.g. the fold going
// quadratic or scratch pooling breaking — never on a slow CI machine.
func TestOverTimeQueryFloor(t *testing.T) {
	r := testRing(t, 64, 3)
	fillWindows(t, r, 64, 16)
	k := key(1)

	// Warm the scratch pool, and sanity-check the answer once.
	est, cov, err := r.QueryOverTime(k, LastWindows(64))
	if err != nil {
		t.Fatal(err)
	}
	if est != 64*16 {
		t.Fatalf("64-window estimate %d, want %d", est, 64*16)
	}
	if cov.Windows != 64 {
		t.Fatalf("coverage %d windows, want 64", cov.Windows)
	}

	const minQPS = 100.0
	start := time.Now()
	queries := 0
	for time.Since(start) < 200*time.Millisecond {
		if _, _, err := r.QueryOverTime(k, LastWindows(64)); err != nil {
			t.Fatal(err)
		}
		queries++
	}
	qps := float64(queries) / time.Since(start).Seconds()
	t.Logf("64-bucket lookback: %.0f queries/s (%d in %s)", qps, queries, time.Since(start).Round(time.Millisecond))
	if qps < minQPS {
		t.Fatalf("over-time query throughput %.0f qps below the %.0f floor at 64-bucket lookback", qps, minQPS)
	}
}

// BenchmarkQueryOverTime measures over-time query latency vs lookback
// depth on a 64-window ring — the scaling claim behind the exponential
// histogram (covering buckets grow O(log n), not O(n)).
func BenchmarkQueryOverTime(b *testing.B) {
	for _, lb := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("lookback=%d", lb), func(b *testing.B) {
			r, err := New(Config{
				Sketch:         engine.SketchConfig{LeafWidth: 512},
				MaxWindows:     64,
				BucketDuration: time.Second,
				Now:            testClock(),
			})
			if err != nil {
				b.Fatal(err)
			}
			k := key(1)
			for w := 0; w < 64; w++ {
				for p := 0; p < 16; p++ {
					r.Update(k, 1) //nolint:errcheck // a live ring cannot fail
				}
				if err := r.Rotate(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := r.QueryOverTime(k, LastWindows(lb)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRotate measures the rotation cost including coarsening
// cascades and retention on a bounded ring.
func BenchmarkRotate(b *testing.B) {
	r, err := New(Config{
		Sketch:         engine.SketchConfig{LeafWidth: 512},
		MaxWindows:     64,
		BucketDuration: time.Second,
		Now:            testClock(),
	})
	if err != nil {
		b.Fatal(err)
	}
	k := key(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Update(k, 1) //nolint:errcheck // a live ring cannot fail
		if err := r.Rotate(); err != nil {
			b.Fatal(err)
		}
	}
}

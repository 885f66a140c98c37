package engine

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/telemetry"
)

func TestEngineInstrument(t *testing.T) {
	e, err := New(Config{Shards: 4, Sketch: withSeed(geometries[0], 0)})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e.Instrument(reg)

	// Shard-owned writers: each shard's counter sees only its own traffic.
	var wg sync.WaitGroup
	const per = 2000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.UpdateShard(w, key(uint64(w*per+i)), 1)
			}
		}(w)
	}
	wg.Wait()
	_, _ = e.Rotate()
	if sk, _ := e.Snapshot(); sk == nil {
		t.Fatal("nil snapshot")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fcm_sketch_updates_total 8000",
		`fcm_engine_shard_updates_total{shard="0"} 2000`,
		`fcm_engine_shard_updates_total{shard="3"} 2000`,
		"fcm_engine_shards 4",
		"fcm_sketch_saturations_total 0",
		`fcm_sketch_promotions_total{level="0"}`,
		`fcm_sketch_level_occupancy{level="0"}`,
		`fcm_sketch_level_overflowed{level="2"}`,
		"fcm_sketch_cardinality_estimate",
		"fcm_sketch_memory_bytes",
		"fcm_engine_memory_bytes",
		"fcm_sketch_resident_bytes",
		"fcm_engine_resident_bytes",
		"fcm_engine_rotate_seconds_count 1",
		"fcm_engine_sketch_builds_total ",
		"fcm_engine_snapshot_seconds_count 1",
		"fcm_engine_merge_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}

	// The occupancy gauges read the prober's cached report (pinned by
	// TestInstrumentScrapeTakesOneSnapshot); here they must at least be
	// self-consistent (occupancy in [0,1], rotated window ≈ empty before
	// new traffic).
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "fcm_sketch_level_occupancy") {
			f := strings.Fields(line)
			if len(f) != 2 || f[1] < "0" {
				t.Errorf("occupancy line %q", line)
			}
		}
	}
}

// TestResidentBytesGauges pins the typed-lane resident gauges to the values
// computed from the sketch itself: fcm_sketch_resident_bytes reports one
// logical replica (the merged snapshot), fcm_engine_resident_bytes the sum
// over all shard replicas. For the paper geometry {8,16,32} at K=8 with
// w1=512 and 2 trees, a replica is 2*(512*1 + 64*2 + 8*4) = 1344 bytes.
func TestResidentBytesGauges(t *testing.T) {
	e, err := New(Config{Shards: 4, Sketch: withSeed(geometries[0], 0)})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e.Instrument(reg)

	sk, _ := e.Snapshot()
	wantReplica := sk.ResidentBytes()
	if wantReplica != 1344 {
		t.Fatalf("replica resident bytes %d, want 1344 for the compact paper geometry", wantReplica)
	}
	if got := e.ResidentBytes(); got != 4*wantReplica {
		t.Fatalf("engine resident bytes %d, want %d (4 shards)", got, 4*wantReplica)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"fcm_sketch_resident_bytes 1344",
		"fcm_engine_resident_bytes 5376",
		// The bit-cost gauge must keep reporting the paper's accounting,
		// which coincides with resident bytes for byte-aligned widths.
		"fcm_sketch_memory_bytes 1344",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
}

func TestInstrumentSketch(t *testing.T) {
	sk, err := core.New(withSeed(geometries[2], 7))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	InstrumentSketch(reg, sk, sk.Clone)
	sk.Update([]byte("a"), 3)
	sk.Update([]byte("b"), 1)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fcm_sketch_updates_total 2") {
		t.Errorf("missing update count:\n%s", out)
	}
	if !strings.Contains(out, `fcm_sketch_level_occupancy{level="0"}`) {
		t.Errorf("missing occupancy series:\n%s", out)
	}
}

// TestInstrumentSurvivesRotate pins the swap rotation's telemetry hand-off:
// each shard's core.Stats moves to the fresh sketch swapped in, so updates
// after a Rotate still advance fcm_engine_shard_updates_total, and the
// closed window's sketch comes back detached (Stats() == nil). Writers
// racing the rotations must be counted exactly once in total.
func TestInstrumentSurvivesRotate(t *testing.T) {
	const shards = 3
	e, err := New(Config{Shards: shards, Sketch: withSeed(geometries[0], 0)})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e.Instrument(reg)
	stats := make([]*core.Stats, shards)
	for i := range stats {
		stats[i] = e.shards[i].sk.Stats()
	}
	scrape := func() string {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	for round := 1; round <= 2; round++ {
		for i := 0; i < shards; i++ {
			for j := 0; j < 100*(i+1); j++ {
				e.UpdateShard(i, key(uint64(j)), 1)
			}
		}
		closed, _ := e.Rotate()
		if closed.Stats() != nil {
			t.Fatalf("round %d: closed window still carries shard telemetry", round)
		}
		for i := 0; i < shards; i++ {
			if got := e.shards[i].sk.Stats(); got != stats[i] {
				t.Fatalf("round %d: shard %d lost its Stats across Rotate", round, i)
			}
		}
		out := scrape()
		for i := 0; i < shards; i++ {
			want := fmt.Sprintf(`fcm_engine_shard_updates_total{shard="%d"} %d`, i, round*100*(i+1))
			if !strings.Contains(out, want+"\n") {
				t.Fatalf("round %d: missing %q in exposition:\n%s", round, want, out)
			}
		}
	}

	// Batched writers racing rotations: every update lands on a shard
	// whose Stats are attached, so the aggregate counts each exactly once.
	before := e.shardUpdates()
	var wg sync.WaitGroup
	const writers, batches, batch = 4, 200, 16
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([][]byte, batch)
			for b := 0; b < batches; b++ {
				for k := range keys {
					keys[k] = key(uint64(w*batches*batch + b*batch + k))
				}
				e.UpdateBatch(keys, 1)
			}
		}(w)
	}
	for r := 0; r < 20; r++ {
		if closed, _ := e.Rotate(); closed.Stats() != nil {
			t.Error("closed window still carries shard telemetry")
		}
	}
	wg.Wait()
	if got, want := e.shardUpdates()-before, uint64(writers*batches*batch); got != want {
		t.Fatalf("shard update counters advanced by %d under rotation, want %d", got, want)
	}
}

// shardUpdates sums the shards' update counters.
func (e *Engine) shardUpdates() uint64 {
	var n uint64
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += sh.sk.Stats().Updates.Load()
		sh.mu.Unlock()
	}
	return n
}

// paperEngine builds a 2-shard engine of paper-geometry sketches (1 MiB,
// K=8, 2 trees, {8,16,32}) holding 64 Ki packets.
func paperEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{Shards: 2, Sketch: withSeed(core.Config{K: 8, Trees: 2, MemoryBytes: 1 << 20}, 0)})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1<<16; i++ {
		e.Update(key(i%20000), 1)
	}
	return e
}

// TestInstrumentScrapeTakesOneSnapshot: every register-derived series —
// the fcm_sketch_* gauges and the fcm_insight_* gauges — reads one
// prober, so a scrape takes exactly one engine snapshot.
func TestInstrumentScrapeTakesOneSnapshot(t *testing.T) {
	e := paperEngine(t)
	reg := telemetry.NewRegistry()
	e.Instrument(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fcm_sketch_level_occupancy{level="0"}`,
		"fcm_sketch_cardinality_estimate",
		"fcm_insight_error_bound_packets",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in exposition", want)
		}
	}
	if got := e.snapSeconds.Count(); got != 1 {
		t.Fatalf("one scrape took %d engine snapshots, want 1", got)
	}
}

// TestObserveInsightAllocs: ObserveInsight hands its snapshot back to the
// engine's spares, so a warm engine's observation allocates a census and
// an Observation, not a sketch. sync.Pool keeps a per-P private entry, so
// a goroutine that migrates between Ps can miss a spare now and then; the
// average over 128 observations absorbs a few such rebuilds.
func TestObserveInsightAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	e := paperEngine(t)
	// Collect the setup's garbage so no collection is due while the
	// observations are measured (two would empty the spares), then warm
	// the spares.
	runtime.GC()
	e.ObserveInsight()
	const rounds = 128
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		e.ObserveInsight()
	}
	runtime.ReadMemStats(&after)
	perObs := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d B allocated per observation", perObs)
	if perObs >= 64<<10 {
		t.Fatalf("ObserveInsight allocates %d B per observation, want < 64 KiB", perObs)
	}
}

package engine

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"github.com/fcmsketch/fcm/internal/telemetry"
)

func TestEngineInstrument(t *testing.T) {
	e, err := New(Config{Shards: 4, Build: build(geometries[0], 0)})
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
		"fcm_engine_snapshot_seconds_count 1",
		"fcm_engine_merge_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}

	// The occupancy probe caches within its TTL: the engine generation can
	// move without every gauge read paying a snapshot+scan. We can't observe
	// the cache directly, but the gauges must at least be self-consistent
	// (occupancy in [0,1], rotated window ≈ empty before new traffic).
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
	e, err := New(Config{Shards: 4, Build: build(geometries[0], 0)})
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
	sk, err := build(geometries[2], 7)()
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

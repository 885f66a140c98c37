package main

import (
	"encoding/binary"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/telemetry"
	"github.com/fcmsketch/fcm/internal/window"
)

// TestOverTimeEstimateMatchesSwitch drives fcmagg's own configuration
// against a switch-like engine and checks that a per-flow over-time answer
// equals the switch's own estimate. It pins the hash family: member
// sketches restored with any family other than the data plane's hash the
// query key to unrelated counters.
func TestOverTimeEstimateMatchesSwitch(t *testing.T) {
	eng, err := engine.New(engine.Config{
		Shards: 2,
		Sketch: core.Config{K: 8, Trees: 2, MemoryBytes: 1 << 16, Hash: hashing.DataPlaneFamily(0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("heavy-flow")
	eng.Update(key, 777)
	var bg [8]byte
	for i := uint64(0); i < 200; i++ {
		binary.BigEndian.PutUint64(bg[:], i)
		eng.Update(bg[:], 1+i%5)
	}
	sk, _ := eng.Snapshot()
	want := sk.Estimate(key)
	if want < 777 {
		t.Fatalf("switch estimate %d below the true count 777", want)
	}

	srv, err := collect.NewServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	agg, err := collect.NewAggregator(aggregatorConfig([]string{srv.Addr()}, 20*time.Millisecond, 2*time.Second, 1, 1, 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for agg.Stats().MemberSnapshots == 0 {
		if time.Now().After(deadline) {
			agg.Stop()
			t.Fatal("no member snapshot within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	agg.Stop()

	ring := window.NewCollector(window.Config{BucketDuration: 20 * time.Millisecond})
	now := time.Now()
	if !fileRound(ring, agg, now.Add(-time.Second), now, telemetry.OrNop(nil)) {
		t.Fatal("no round drained")
	}
	got, cov, err := ring.QueryOverTime(key, window.LastWindows(1))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("over-time estimate %d, switch estimate %d", got, want)
	}
	if cov.Windows != 1 {
		t.Fatalf("coverage %d windows, want 1", cov.Windows)
	}
}

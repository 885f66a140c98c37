package collect

import (
	"net"
	"runtime"
	"testing"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/engine"
	"github.com/fcmsketch/fcm/internal/faultnet"
	"github.com/fcmsketch/fcm/internal/hashing"
)

// TestFleetTwoLevelConvergence drives a 200+-switch collection tree —
// switches → regional aggregators → one controller — through the full
// failure repertoire the design claims to survive:
//
//   - every switch sits behind a fault injector (corruption, resets,
//     latency, short writes) while the aggregators collect deltas from it;
//   - the controller polls every aggregator with codec v3 sessions and must
//     converge to a merge register-bit-identical to folding all switches
//     flat and serially — the tree must be invisible in the result;
//   - one aggregator suffers a total outage (cable pull + refuse-all); the
//     controller re-homes its members by reading them directly, and the
//     re-homed merge is still bit-identical to the flat one;
//   - the aggregator heals and the tree path converges again over the same
//     delta sessions;
//   - an injected generation loss (client baseline wipe) degrades to a
//     full snapshot — counted, never mis-merged;
//   - across all of it, delta bytes on the controller tier stay strictly
//     below full-snapshot bytes, and nothing leaks a goroutine.
func TestFleetTwoLevelConvergence(t *testing.T) {
	regions, membersPerRegion := 16, 13 // 208 switches
	if testing.Short() {
		regions, membersPerRegion = 4, 4
	}
	switches := regions * membersPerRegion

	baseline := runtime.NumGoroutine()
	// Registered before any server or poller exists, so it runs after all
	// their deferred closes: the whole fleet must unwind cleanly.
	t.Cleanup(func() { checkNoGoroutineLeak(t, baseline) })
	fam := hashing.NewBobFamily(42)
	geometry := core.Config{
		K: 4, Trees: 2, LeafWidth: 64, Widths: []int{8, 16, 32}, Hash: fam,
	}

	// Every switch ingests its slice of one deterministic trace up front,
	// so the fleet state is fixed and the flat reference is exact.
	engines := make([]*engine.Engine, switches)
	for i := range engines {
		eng, err := engine.New(engine.Config{Build: func() (*core.Sketch, error) {
			return core.New(geometry)
		}})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	packets := switches * 150
	for p := 0; p < packets; p++ {
		engines[p%switches].Update(k(uint64(p%1499)), uint64(1+p%5))
	}

	// Flat reference: every switch merged serially, no tree, no network.
	reference := snapshotOf(engines[0])
	for _, eng := range engines[1:] {
		if err := reference.Merge(snapshotOf(eng)); err != nil {
			t.Fatal(err)
		}
	}

	// Tier 1: every switch serves its registers behind a fault injector
	// with mild-but-real faults.
	memberInjs := make([]*faultnet.Injector, switches)
	memberSrvs := make([]*Server, switches)
	for i := range engines {
		memberInjs[i] = faultnet.New(faultnet.Config{
			Seed:          chaosSeed + int64(i),
			ResetProb:     0.05,
			ResetAfterMax: 4096,
			CorruptProb:   0.05,
			MaxLatency:    time.Millisecond,
			MaxWriteChunk: 64,
		})
		memberSrvs[i] = serveChaos(t, engines[i], memberInjs[i])
		defer memberSrvs[i].Close() //nolint:errcheck // teardown
	}

	// Tier 2: one aggregator per region collects deltas from its members
	// and re-exports the merged region behind its own injector (healthy
	// until we pull its cable).
	aggs := make([]*Aggregator, regions)
	aggInjs := make([]*faultnet.Injector, regions)
	aggSrvs := make([]*Server, regions)
	for r := 0; r < regions; r++ {
		members := make([]PollerConfig, membersPerRegion)
		for m := range members {
			members[m] = PollerConfig{Addr: memberSrvs[r*membersPerRegion+m].Addr()}
		}
		agg, err := NewAggregator(AggregatorConfig{
			Members:     members,
			Interval:    30 * time.Millisecond,
			Timeout:     300 * time.Millisecond,
			Retries:     1,
			Delta:       true,
			MaxInFlight: 4,
			JitterSeed:  int64(r + 1),
			Family:      fam,
		})
		if err != nil {
			t.Fatal(err)
		}
		aggs[r] = agg
		aggInjs[r] = faultnet.New(faultnet.Config{Seed: chaosSeed + 1000 + int64(r)})
		raw, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		aggSrvs[r] = Serve(faultnet.Listen(raw, aggInjs[r]), agg, ServerConfig{
			ReadTimeout:  300 * time.Millisecond,
			WriteTimeout: 300 * time.Millisecond,
			IdleTimeout:  5 * time.Second,
		})
		defer aggSrvs[r].Close() //nolint:errcheck // teardown
		if err := agg.Start(); err != nil {
			t.Fatal(err)
		}
		defer agg.Stop()
	}

	// Let every region assemble all of its members before the controller
	// starts reading (free via Stats, no wire cost): the converge loops
	// below then measure the delta protocol's steady state, not the
	// fleet's boot ramp.
	assembleDeadline := time.Now().Add(45 * time.Second)
	for r := 0; r < regions; {
		if aggs[r].Stats().MembersReporting == membersPerRegion {
			r++
			continue
		}
		if time.Now().After(assembleDeadline) {
			t.Fatalf("region %d never assembled: %+v", r, aggs[r].Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Controller: one persistent delta session per aggregator.
	ctrl := make([]*Client, regions)
	for r := range ctrl {
		c, err := NewClient(ClientConfig{
			Addr:        aggSrvs[r].Addr(),
			DialTimeout: 300 * time.Millisecond,
			IOTimeout:   300 * time.Millisecond,
			MaxRetries:  2,
			Delta:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctrl[r] = c
		defer c.Close() //nolint:errcheck // teardown
	}

	// readMerge folds one snapshot read per client into a single sketch;
	// any read or merge error fails the whole round (no partial merges).
	readMerge := func(clients []*Client) (*core.Sketch, error) {
		var merged *core.Sketch
		for _, c := range clients {
			snap, err := c.ReadSketch()
			if err != nil {
				return nil, err
			}
			sk, err := snap.Restore(fam)
			if err != nil {
				return nil, err
			}
			if merged == nil {
				merged = sk
				continue
			}
			if err := merged.Merge(sk); err != nil {
				return nil, err
			}
		}
		return merged, nil
	}

	// converge retries readMerge until the tree's answer is bit-identical
	// to the flat reference.
	converge := func(phase string, clients []*Client, extra []*Client) {
		t.Helper()
		deadline := time.Now().Add(45 * time.Second)
		var lastDiff string
		for time.Now().Before(deadline) {
			merged, err := readMerge(clients)
			if err == nil && extra != nil {
				var more *core.Sketch
				if more, err = readMerge(extra); err == nil {
					err = merged.Merge(more)
				}
			}
			if err != nil {
				lastDiff = err.Error()
				time.Sleep(20 * time.Millisecond)
				continue
			}
			if lastDiff = reference.FirstRegisterDiff(merged); lastDiff == "" {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("%s: tree merge never matched the flat reference: %s", phase, lastDiff)
	}

	// Phase 1: faults active, full tree. The aggregators' staggered delta
	// pollers must still assemble every region, and the controller's merge
	// of 16 regions must equal the flat 208-switch merge bit for bit.
	converge("faulty tree", ctrl, nil)

	// Heal the leaf tier so the remaining phases isolate aggregator faults.
	for _, inj := range memberInjs {
		inj.Heal()
	}

	// Phase 2: total outage of region 0 — refuse new connections and cut
	// the live ones. The controller must see the failure (aggregated across
	// retries), then re-home: poll region 0's switches directly and merge
	// them with the 15 surviving aggregators. Same registers, different
	// collection path.
	aggInjs[0].SetConfig(faultnet.Config{RefuseProb: 1})
	aggInjs[0].Cut()
	if _, err := ctrl[0].ReadSketch(); err == nil {
		t.Fatal("controller read of a cut aggregator succeeded")
	}
	rehomed := make([]*Client, membersPerRegion)
	for m := range rehomed {
		c, err := NewClient(ClientConfig{
			Addr:        aggs[0].MemberAddrs()[m],
			DialTimeout: 300 * time.Millisecond,
			IOTimeout:   300 * time.Millisecond,
			MaxRetries:  2,
			Delta:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		rehomed[m] = c
		defer c.Close() //nolint:errcheck // teardown
	}
	converge("re-homed members", ctrl[1:], rehomed)

	// Phase 3: the aggregator heals and the tree path converges again over
	// the controller's existing delta sessions.
	aggInjs[0].Heal()
	converge("healed tree", ctrl, nil)

	// Phase 4: injected generation loss. Wiping one controller client's
	// baseline forces its next request to admit it has none; the server
	// must degrade to a full snapshot and count why.
	before := aggSrvs[1].Stats().Fallbacks["no_baseline"]
	ctrl[1].InvalidateDeltaState()
	if _, err := ctrl[1].ReadSketch(); err != nil {
		t.Fatalf("read after baseline invalidation: %v", err)
	}
	if after := aggSrvs[1].Stats().Fallbacks["no_baseline"]; after <= before {
		t.Fatalf("generation loss not counted: no_baseline %d -> %d", before, after)
	}
	converge("after generation loss", ctrl, nil)

	// The bandwidth ledger: on this steady workload the controller tier
	// must have served real delta traffic, and spent strictly fewer bytes
	// on deltas than on full snapshots.
	var deltaBytes, fullBytes, deltaReads uint64
	for r, srv := range aggSrvs {
		st := srv.Stats()
		deltaBytes += st.DeltaWireBytes
		fullBytes += st.FullWireBytes
		deltaReads += st.DeltaReads
		if st.DeltaReads == 0 {
			t.Errorf("aggregator %d served no v3 reads", r)
		}
	}
	if deltaReads == 0 || deltaBytes == 0 {
		t.Fatal("controller tier never used the delta path")
	}
	if deltaBytes >= fullBytes {
		t.Fatalf("delta bytes (%d) not below full-snapshot bytes (%d)", deltaBytes, fullBytes)
	}
	t.Logf("fleet: %d switches, %d regions; controller tier wire bytes: delta=%d full=%d (%.1f%%)",
		switches, regions, deltaBytes, fullBytes, 100*float64(deltaBytes)/float64(fullBytes))
}

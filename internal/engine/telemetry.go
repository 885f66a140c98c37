package engine

import (
	"fmt"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/insight"
	"github.com/fcmsketch/fcm/internal/telemetry"
)

// Instrument attaches self-telemetry to the engine and registers its
// series: per-shard ingest counters (the paper's data plane measuring
// itself), sketch-level promotion/saturation/occupancy series aggregated
// over the shards, the accuracy self-report gauges (insight.Instrument),
// and snapshot/merge/rotate latency histograms. It returns the prober
// every register-derived series reads, for the caller to mount as
// /debug/insight.
//
// Hot-path contract: an instrumented UpdateShard adds exactly one
// uncontended atomic add (the shard's own core.Stats); everything else —
// occupancy, cardinality, the accuracy report — comes from one merged
// snapshot and one census per prober TTL, taken at scrape time. Call
// before ingest starts; attaching races no locks but the first updates
// on a not-yet-attached shard would go uncounted.
func (e *Engine) Instrument(reg *telemetry.Registry) *insight.Prober {
	var depth, mem, resident int // one replica's geometry
	stats := make([]*core.Stats, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		if i == 0 {
			depth, mem, resident = sh.sk.Depth(), sh.sk.MemoryBytes(), sh.sk.ResidentBytes()
		}
		st := core.NewStats(depth)
		sh.sk.SetStats(st)
		sh.mu.Unlock()
		stats[i] = st
	}

	reg.GaugeFunc("fcm_engine_shards", "Number of ingest shards.",
		func() float64 { return float64(len(e.shards)) })
	for i := range stats {
		st := stats[i]
		reg.CounterFuncL("fcm_engine_shard_updates_total", fmt.Sprintf(`shard="%d"`, i),
			"Sketch updates ingested per shard.",
			func() float64 { return float64(st.Updates.Load()) })
	}
	reg.GaugeFunc("fcm_engine_memory_bytes",
		"Combined counter footprint of all shard replicas (configured bit cost).",
		func() float64 { return float64(e.MemoryBytes()) })
	reg.GaugeFunc("fcm_engine_resident_bytes",
		"Combined bytes of counter storage actually allocated by all shard replicas (typed lanes).",
		func() float64 { return float64(e.ResidentBytes()) })

	e.snapSeconds = reg.Histogram("fcm_engine_snapshot_seconds",
		"Latency of a full engine snapshot (per-shard register copies plus exact merge).", nil)
	e.mergeSeconds = reg.Histogram("fcm_engine_merge_seconds",
		"Latency of the exact-merge phase of snapshots and rotations.", nil)
	e.rotateSeconds = reg.Histogram("fcm_engine_rotate_seconds",
		"Latency of a window rotation (build fresh shard sketches, swap each in, merge the closed ones).", nil)

	p := insight.NewProber(func() (insight.Observation, bool) { return e.ObserveInsight(), true })
	registerSketchSeries(reg, depth, mem, resident, stats, p)
	return p
}

// InstrumentSketch registers the same sketch-level and accuracy series
// for a single-writer sketch (the non-sharded fcmswitch programs): sk gets
// a core.Stats attached, and snapshot provides consistent register copies
// for the prober (e.g. a closure over collect.LockedSketch.Snapshot). It
// returns the prober, as Instrument does.
func InstrumentSketch(reg *telemetry.Registry, sk *core.Sketch, snapshot func() *core.Sketch) *insight.Prober {
	st := core.NewStats(sk.Depth())
	sk.SetStats(st)
	stats := []*core.Stats{st}
	p := insight.NewProber(func() (insight.Observation, bool) {
		snap := snapshot()
		obs := insight.Observe(snap)
		obs.Counts = countsOf(snap.Depth(), stats)
		return obs, true
	})
	registerSketchSeries(reg, sk.Depth(), sk.MemoryBytes(), sk.ResidentBytes(), stats, p)
	return p
}

// ObserveInsight scans a merged snapshot into an insight.Observation and
// hands the snapshot back to the spares. Snapshot clones drop the shards'
// Stats attachment, so the cumulative hot-path counters are re-derived by
// summing across shards (zero when the engine was never instrumented —
// the analyzer falls back to register-derived signals). Walks every
// register: scrape-time or per-window only.
func (e *Engine) ObserveInsight() insight.Observation {
	sk, _ := e.Snapshot()
	defer e.Recycle(sk)
	obs := insight.Observe(sk)
	var stats []*core.Stats
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		if st := sh.sk.Stats(); st != nil {
			stats = append(stats, st)
		}
		sh.mu.Unlock()
	}
	if len(stats) > 0 {
		obs.Counts = countsOf(sk.Depth(), stats)
	}
	return obs
}

// countsOf sums the cumulative hot-path counters of stats.
func countsOf(depth int, stats []*core.Stats) insight.Counts {
	c := insight.Counts{Promotions: make([]uint64, depth-1)}
	for _, st := range stats {
		c.Updates += st.Updates.Load()
		c.Saturations += st.Saturations.Load()
		for l := range c.Promotions {
			c.Promotions[l] += st.PromotionCount(l)
		}
	}
	return c
}

// registerSketchSeries exports the FCM sketch's self-telemetry: update
// volume, per-level overflow promotions and root saturations from the
// hot-path counters; occupancy, overflowed nodes and cardinality from p's
// report; the replica footprint from the geometry; and the accuracy
// self-report gauges.
func registerSketchSeries(reg *telemetry.Registry, depth, mem, resident int, stats []*core.Stats, p *insight.Prober) {
	sum := func(read func(*core.Stats) uint64) func() float64 {
		return func() float64 {
			var total uint64
			for _, st := range stats {
				total += read(st)
			}
			return float64(total)
		}
	}
	reg.CounterFunc("fcm_sketch_updates_total", "Total sketch updates ingested.",
		sum(func(st *core.Stats) uint64 { return st.Updates.Load() }))
	for l := 0; l < depth-1; l++ {
		l := l
		reg.CounterFuncL("fcm_sketch_promotions_total", fmt.Sprintf(`level="%d"`, l),
			"Counter-overflow promotions from this stage into the next (8b->16b->32b escalation).",
			sum(func(st *core.Stats) uint64 { return st.PromotionCount(l) }))
	}
	reg.CounterFunc("fcm_sketch_saturations_total",
		"Updates clamped at the root stage's counting capacity (hard overflow).",
		sum(func(st *core.Stats) uint64 { return st.Saturations.Load() }))

	report := func() insight.Report {
		rep, _ := p.Report()
		return rep
	}
	for l := 0; l < depth; l++ {
		l := l
		reg.GaugeFuncL("fcm_sketch_level_occupancy", fmt.Sprintf(`level="%d"`, l),
			"Fraction of non-zero counters per stage, averaged over trees (from the prober's cached census).",
			func() float64 { return report().Stage(l).Occupancy })
		reg.GaugeFuncL("fcm_sketch_level_overflowed", fmt.Sprintf(`level="%d"`, l),
			"Counters sitting at the overflow marker per stage, summed over trees.",
			func() float64 { return float64(report().Stage(l).Overflowed) })
	}
	reg.GaugeFunc("fcm_sketch_cardinality_estimate",
		"Linear-Counting cardinality estimate of the current window.",
		func() float64 { return report().CardinalityEstimate })
	reg.GaugeFunc("fcm_sketch_memory_bytes",
		"Counter footprint of the logical sketch (one replica), as the paper accounts it: exact bit cost.",
		func() float64 { return float64(mem) })
	reg.GaugeFunc("fcm_sketch_resident_bytes",
		"Bytes of counter storage actually allocated for one replica: typed lanes cost 1/2/4 bytes per node by stage width, not a uniform 4.",
		func() float64 { return float64(resident) })
	insight.Instrument(reg, depth, p)
}

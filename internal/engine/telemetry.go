package engine

import (
	"fmt"
	"sync"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/insight"
	"github.com/fcmsketch/fcm/internal/telemetry"
)

// Instrument attaches self-telemetry to the engine and registers its
// series: per-shard ingest counters (the paper's data plane measuring
// itself), sketch-level promotion/saturation/occupancy series aggregated
// over the shards, and snapshot/merge/rotate latency histograms.
//
// Hot-path contract: an instrumented UpdateShard adds exactly one
// uncontended atomic add (the shard's own core.Stats); everything else —
// occupancy scans, cardinality, memory — is computed at scrape time from
// a cached merged snapshot. Call before ingest starts; attaching races
// no locks but the first updates on a not-yet-attached shard would go
// uncounted.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	depth := 0
	stats := make([]*core.Stats, len(e.shards))
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		if depth == 0 {
			depth = sh.sk.Depth()
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

	registerSketchSeries(reg, depth, stats, func() *core.Sketch {
		sk, _ := e.Snapshot()
		return sk
	})
}

// InstrumentSketch registers the same sketch-level series for a
// single-writer sketch (the non-sharded fcmswitch programs): sk gets a
// core.Stats attached, and snapshot provides consistent register copies
// for the scrape-time scans (e.g. a closure over
// collect.LockedSketch.Snapshot).
func InstrumentSketch(reg *telemetry.Registry, sk *core.Sketch, snapshot func() *core.Sketch) {
	st := core.NewStats(sk.Depth())
	sk.SetStats(st)
	registerSketchSeries(reg, sk.Depth(), []*core.Stats{st}, snapshot)
}

// ObserveInsight scans a merged snapshot into an insight.Observation.
// Snapshot clones drop the shards' Stats attachment, so the cumulative
// hot-path counters are re-derived by summing across shards (zero when
// the engine was never instrumented — the analyzer falls back to
// register-derived signals). Walks every register: scrape-time or
// per-window only.
func (e *Engine) ObserveInsight() insight.Observation {
	sk, _ := e.Snapshot()
	obs := insight.Observe(sk)
	prom := make([]uint64, sk.Depth()-1)
	have := false
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		st := sh.sk.Stats()
		sh.mu.Unlock()
		if st == nil {
			continue
		}
		have = true
		obs.Counts.Updates += st.Updates.Load()
		obs.Counts.Saturations += st.Saturations.Load()
		for l := range prom {
			prom[l] += st.PromotionCount(l)
		}
	}
	if have {
		obs.Counts.Promotions = prom
	}
	return obs
}

// InsightProber wraps ObserveInsight in a TTL-cached accuracy analyzer —
// the report source for the /debug/insight endpoint and the insight
// gauges (ttl <= 0 takes the Prober default of 1s).
func (e *Engine) InsightProber(cfg insight.Config, ttl time.Duration) *insight.Prober {
	return insight.NewProber(insight.NewAnalyzer(cfg), e.ObserveInsight, ttl)
}

// InstrumentInsight registers the accuracy self-report gauges
// (insight.Instrument) backed by a fresh prober, and returns that prober
// so the caller can also mount it as /debug/insight.
func (e *Engine) InstrumentInsight(reg *telemetry.Registry, cfg insight.Config, ttl time.Duration) *insight.Prober {
	sh := &e.shards[0]
	sh.mu.Lock()
	depth := sh.sk.Depth()
	sh.mu.Unlock()
	p := e.InsightProber(cfg, ttl)
	insight.Instrument(reg, depth, p.Report)
	return p
}

// registerSketchSeries exports the FCM sketch's self-telemetry: update
// volume, per-level overflow promotions, root saturations, and the
// scrape-time occupancy/cardinality probe.
func registerSketchSeries(reg *telemetry.Registry, depth int, stats []*core.Stats, snapshot func() *core.Sketch) {
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

	probe := &sketchProbe{snapshot: snapshot, depth: depth}
	for l := 0; l < depth; l++ {
		l := l
		reg.GaugeFuncL("fcm_sketch_level_occupancy", fmt.Sprintf(`level="%d"`, l),
			"Fraction of non-zero counters per stage, averaged over trees (from a cached merged snapshot).",
			func() float64 { return probe.get().occ[l] })
		reg.GaugeFuncL("fcm_sketch_level_overflowed", fmt.Sprintf(`level="%d"`, l),
			"Counters sitting at the overflow marker per stage, summed over trees.",
			func() float64 { return float64(probe.get().over[l]) })
	}
	reg.GaugeFunc("fcm_sketch_cardinality_estimate",
		"Linear-Counting cardinality estimate of the current window.",
		func() float64 { return probe.get().card })
	reg.GaugeFunc("fcm_sketch_memory_bytes",
		"Counter footprint of the logical sketch (one replica), as the paper accounts it: exact bit cost.",
		func() float64 { return probe.get().mem })
	reg.GaugeFunc("fcm_sketch_resident_bytes",
		"Bytes of counter storage actually allocated for one replica: typed lanes cost 1/2/4 bytes per node by stage width, not a uniform 4.",
		func() float64 { return probe.get().resident })
}

// sketchProbe caches the expensive register scans behind a short TTL so
// one scrape's many gauge reads trigger one snapshot, not a dozen, and
// back-to-back scrapes during heavy ingest stay cheap.
type sketchProbe struct {
	snapshot func() *core.Sketch
	depth    int

	mu sync.Mutex
	at time.Time
	v  probeValues
}

type probeValues struct {
	occ      []float64
	over     []int
	card     float64
	mem      float64
	resident float64
}

// probeTTL bounds how stale scrape-time register scans may be.
const probeTTL = time.Second

func (p *sketchProbe) get() probeValues {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.at.IsZero() && time.Since(p.at) < probeTTL {
		return p.v
	}
	sk := p.snapshot()
	p.v = probeValues{
		occ:      sk.StageOccupancy(),
		over:     sk.OverflowedNodes(),
		card:     sk.Cardinality(),
		mem:      float64(sk.MemoryBytes()),
		resident: float64(sk.ResidentBytes()),
	}
	p.at = time.Now()
	return p.v
}

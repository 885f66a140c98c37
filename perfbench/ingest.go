package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/window"
)

// ringIngest is a ring that owns its live data plane, fed by nproc
// closed-loop writers. Windows are a fixed packet count: at each boundary
// the writers have finished and the driver rotates, so every window's
// contents are deterministic and generation g holds window g of the trace.
type ringIngest struct {
	l       *load
	ring    *window.Ring
	size    int // packets per window
	writers int
	gen     int // generation of the newest closed window
}

// windowSample is one window: how long its ingest, Rotate and freshness
// answer took.
type windowSample struct {
	ingest, rotate, answer time.Duration
}

// next ingests window gen+1, rotates, and asks the freshness question
// (cardinality of the newest window). tr records a span per public call.
func (ri *ringIngest) next(tr *tracer, parent active) (windowSample, float64, window.Coverage, error) {
	s, err := ri.fill(tr, parent)
	if err != nil {
		return s, 0, window.Coverage{}, err
	}
	sp := tr.start("window.CardinalityOverTime", parent)
	t0 := time.Now()
	card, cov, err := ri.ring.CardinalityOverTime(window.LastWindows(1))
	s.answer = time.Since(t0)
	tr.end(sp, 1)
	return s, card, cov, err
}

// fill ingests window gen+1 through the writers and rotates it closed.
func (ri *ringIngest) fill(tr *tracer, parent active) (windowSample, error) {
	pkts := ri.l.window(ri.gen+1, ri.size)
	var s windowSample
	t0 := time.Now()
	err := parallel(pkts, ri.writers, func(part keys) error {
		sp := tr.start("window.UpdateBatch", parent)
		err := replay(part, ri.ring.UpdateBatch)
		tr.end(sp, part.len())
		return err
	})
	t1 := time.Now()
	if err != nil {
		return s, err
	}
	sp := tr.start("window.Rotate", parent)
	err = ri.ring.Rotate()
	tr.end(sp, 1)
	s.ingest, s.rotate = t1.Sub(t0), time.Since(t1)
	if err != nil {
		return s, err
	}
	ri.gen++
	return s, nil
}

// check compares the newest closed window and its freshness answer with a
// serial ingest of the window's packets (refs holds one per distinct
// window of the cyclic trace).
func (ri *ringIngest) check(refs []*core.Sketch, card float64, cov window.Coverage, t *tally) {
	want := refs[ri.gen%len(refs)]
	got, _, err := ri.ring.SnapshotOverTime(window.LastWindows(1))
	good := err == nil && got.EqualRegisters(want) && card == want.Cardinality() &&
		cov.LastGeneration == uint64(ri.gen) && cov.Buckets == 1
	t.record(err, good, fmt.Sprintf("window %d differs from its serial ingest", ri.gen))
}

// settlePeriods maps a ring retention (MaxWindows) to the generation
// period of the heap the ring retains. Both the bucket count and the
// dropped buckets that the ring's bucket slice still references — it is
// trimmed from the front and compacted in place, so its backing array keeps
// stale pointers until the next reallocation — are periodic in the
// generation once the ring is at retention; these periods were measured for
// the retentions the benchmark uses, by sampling the live heap of a ring
// rotated 4000 times. Other retentions settle to a multiple of the
// retention, which fixes the bucket count only.
var settlePeriods = map[int]uint64{16: 32, 128: 608}

// settle files closed windows with close until the ring's generation is a
// multiple of its retention's period, so the memory read afterwards does
// not depend on how many windows a run happened to fit into its seconds.
func settle(r *window.Ring, retention int, close func() error) error {
	period := settlePeriods[retention]
	if period == 0 {
		period = uint64(retention)
	}
	for g := r.Generation(); g < 2*period || g%period != 0; g++ {
		if err := close(); err != nil {
			return err
		}
	}
	return nil
}

func runIngest(o options, nproc int) (*outcome, error) {
	sz := o.sz
	l, err := newLoad(sz.tracePackets, o.seed)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(l, o.corruptRef)
	if err != nil {
		return nil, err
	}
	refs := ref.each(l.packets.len()/sz.ingestWindow, func(w int) []keys { return []keys{l.window(w, sz.ingestWindow)} })
	base := retainedBytes()

	// Set-up: build the ring and run one untimed warm-up window through
	// the writers and Rotate, so pools and page mappings are warm.
	var setups []float64
	var ri *ringIngest
	for i := 0; i < sz.setupReps; i++ {
		ri = nil
		runtime.GC()
		t0 := time.Now()
		ring, err := window.New(window.Config{Sketch: geometry, Shards: nproc, MaxWindows: sz.ingestRetention})
		if err != nil {
			return nil, err
		}
		ri = &ringIngest{l: l, ring: ring, size: sz.ingestWindow, writers: nproc}
		if _, _, _, err := ri.next(nil, active{}); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	var t tally
	tr := newTracer(o.traced)
	before := ri.ring.Stats()
	phase := func(seconds float64, tr *tracer) (*grouped, error) {
		g := &grouped{size: sz.group}
		runtime.GC()
		begin := time.Now()
		for running(sz, begin, seconds, g) {
			op := tr.start("ingest.window", active{})
			st := stealTicks()
			s, card, cov, err := ri.next(tr, op)
			clean := stealTicks() == st
			tr.end(op, ri.size)
			if err != nil {
				t.record(err, false, "ingest window")
				return nil, err
			}
			g.add(ri.size, s.ingest+s.rotate, s.rotate+s.answer, clean)
			ri.check(refs, card, cov, &t)
		}
		return g, nil
	}

	res := &outcome{checked: map[string]string{"window": "all"}, e2e: map[string]metric{},
		layers: map[string]metric{}, spans: tr}
	steal := cpuTicks()
	g, err := timed(o, res, tr, phase)
	if err != nil {
		return nil, err
	}
	stolen := stealSince(steal)
	after := ri.ring.Stats()

	if o.traced {
		composed := map[string]metric{
			"window.rotate_ms":                 {Unit: "ms", Value: median(tr.selfPerUnit("window.Rotate"))},
			"window.coarsen_merges_per_rotate": {Unit: "count", Value: mergesPerRotate(before, after)},
			"window.resident_mb":               {Unit: "MB", Value: float64(after.ResidentBytes) / 1e6},
		}
		if err := ledger(res, o, l, ri.ring, sz.ingestWindow, nproc, composed, tr.perPacketNs("window.UpdateBatch"), "ladder.parallel_ring_ns"); err != nil {
			return nil, err
		}
	}

	if err := settle(ri.ring, sz.ingestRetention, ri.ring.Rotate); err != nil {
		return nil, err
	}
	retained := (float64(retainedBytes()) - float64(base)) / 1e6
	runtime.KeepAlive(l)
	runtime.KeepAlive(refs)
	runtime.KeepAlive(ri)
	res.attempted, res.failed = t.attempted, t.failed
	e2e := []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
	}
	e2e = append(e2e, g.metrics()...)
	e2e = append(e2e,
		metric{Name: "retained_mb", Unit: "MB", Value: retained},
		metric{Name: "op_fail_frac", Unit: "fraction", Value: failFrac(res), N: res.attempted},
		metric{Name: "host_steal_frac", Unit: "fraction", Value: stolen},
		metric{Name: "clean_sample_frac", Unit: "fraction", Value: g.fresh.cleanFrac(), N: g.fresh.n()},
	)
	finish(res, e2e, t.first)
	return res, nil
}

// mergesPerRotate is the coarsening merges per filed window between two
// ring stats readings.
func mergesPerRotate(before, after window.Stats) float64 {
	rot := after.Rotations - before.Rotations
	if rot == 0 {
		return 0
	}
	return float64(after.CoarsenMerges-before.CoarsenMerges) / float64(rot)
}

// phaseFunc runs a workload's timed phase for the given seconds, recording
// spans in tr (nil: none), and returns its grouped rate and freshness
// samples.
type phaseFunc func(seconds float64, tr *tracer) (*grouped, error)

// timed runs the timed phase: whole when untraced; when traced, an
// untraced half and then a traced half, whose figures side by side state
// the cost of recording spans. It returns the samples of the last half.
func timed(o options, res *outcome, tr *tracer, phase phaseFunc) (*grouped, error) {
	if !o.traced {
		return phase(o.seconds, nil)
	}
	u, err := phase(o.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	g, err := phase(o.seconds/2, tr)
	if err != nil {
		return nil, err
	}
	res.layers["trace.untraced_ingest_mpps"] = metric{Unit: "Mpkt/s", Value: u.mpps.median()}
	res.layers["trace.traced_ingest_mpps"] = metric{Unit: "Mpkt/s", Value: g.mpps.median()}
	res.layers["trace.untraced_fresh_p50_ms"] = metric{Unit: "ms", Value: u.fresh.median()}
	res.layers["trace.traced_fresh_p50_ms"] = metric{Unit: "ms", Value: g.fresh.median()}
	return g, nil
}

// running reports whether a timed phase that began at begin goes on: for
// its seconds, and then — at most as long again — until it has the
// windows and groups its percentiles need.
func running(sz sizes, begin time.Time, seconds float64, g *grouped) bool {
	el := time.Since(begin).Seconds()
	short := g.lags.n() < sz.minSamples || g.groups() < sz.minGroups
	return el < seconds || (short && el < 2*seconds)
}

// finish files the end-to-end metrics into the outcome's report.
func finish(res *outcome, e2e []metric, firstFailure string) {
	for _, m := range e2e {
		res.e2e[m.Name] = m
		res.report = append(res.report, m)
	}
	if firstFailure != "" {
		res.report = append(res.report, metric{Name: "first_failure: " + firstFailure, Unit: "-"})
	}
}

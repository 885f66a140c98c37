package main

import (
	"fmt"
	"runtime"
	"time"

	fcm "github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/hashing"
	"github.com/fcmsketch/fcm/internal/window"
)

// switches is the number of in-process switches the collector polls.
const switches = 2

// dataPlaneFamily is the hash family fcm.Config{Seed: 0} sketches use; the
// collector restores snapshots with it so restored windows stay queryable.
var dataPlaneFamily = hashing.NewBobFamily(0xfc3141)

// fleet is two switches — each an fcm.Sharded served by collect.Server and
// read by one codec-v3 delta collect.Client over loopback TCP — and a
// collector ring the aggregator files each round into.
type fleet struct {
	l        *load
	size     int // packets per switch per round
	switches []*fcm.Sharded
	servers  []*collect.Server
	clients  []*collect.Client
	ring     *window.Ring
	round    int
}

// newFleet builds the fleet and takes the first full snapshot of every
// switch, which establishes each client's delta baseline.
func newFleet(l *load, size, keep int) (*fleet, error) {
	f := &fleet{l: l, size: size, ring: window.NewCollector(window.Config{MaxWindows: keep})}
	for i := 0; i < switches; i++ {
		sw, err := fcm.NewSharded(geometry, 1)
		if err != nil {
			f.close()
			return nil, err
		}
		srv, err := collect.NewServer("127.0.0.1:0", sw.Engine())
		if err != nil {
			f.close()
			return nil, err
		}
		f.switches = append(f.switches, sw)
		f.servers = append(f.servers, srv)
		cl, err := collect.NewClient(collect.ClientConfig{Addr: srv.Addr(), Delta: true, MaxRetries: 2})
		if err != nil {
			f.close()
			return nil, err
		}
		f.clients = append(f.clients, cl)
		if _, err := cl.ReadSketch(); err != nil {
			f.close()
			return nil, fmt.Errorf("first snapshot of switch %d: %w", i, err)
		}
	}
	return f, nil
}

// close stops every client and server; servers wait for their goroutines.
func (f *fleet) close() {
	for _, c := range f.clients {
		c.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
}

// packets returns switch i's packets in round r.
func (f *fleet) packets(r, i int) keys { return f.l.window(switches*r+i, f.size) }

// roundSample is one round: the switches' ingest time and the freshness
// lag from the last packet ingested to the answer on the filed window.
type roundSample struct{ ingest, fresh time.Duration }

// next runs round+1: the switches ingest their windows one after the other
// (one busy goroutine, so host CPU steal on either vCPU stalls at most one
// step), then the aggregator's round through public calls — ReadSketch and
// ResetSketch per member, Snapshot.Restore, an exact merge, FileWindow, and
// the cardinality of the newest window.
func (f *fleet) next(tr *tracer, parent active) (roundSample, *core.Sketch, float64, window.Coverage, error) {
	r := f.round + 1
	var s roundSample
	t0 := time.Now()
	for i, sw := range f.switches {
		sp := tr.start("fcm.Sharded.UpdateBatch", parent)
		pk := f.packets(r, i)
		err := replay(pk, noErr(sw.UpdateBatch))
		tr.end(sp, pk.len())
		if err != nil {
			return s, nil, 0, window.Coverage{}, err
		}
	}
	t1 := time.Now()
	var merged *core.Sketch
	for i, cl := range f.clients {
		sp := tr.start("collect.ReadSketch", parent)
		snap, err := cl.ReadSketch()
		tr.end(sp, 1)
		if err != nil {
			return s, nil, 0, window.Coverage{}, fmt.Errorf("read switch %d: %w", i, err)
		}
		sp = tr.start("collect.ResetSketch", parent)
		err = cl.ResetSketch()
		tr.end(sp, 1)
		if err != nil {
			return s, nil, 0, window.Coverage{}, fmt.Errorf("reset switch %d: %w", i, err)
		}
		sp = tr.start("collect.Restore", parent)
		sk, err := snap.Restore(dataPlaneFamily)
		tr.end(sp, 1)
		if err != nil {
			return s, nil, 0, window.Coverage{}, err
		}
		if merged == nil {
			merged = sk
			continue
		}
		sp = tr.start("core.Merge", parent)
		err = merged.Merge(sk)
		tr.end(sp, 1)
		if err != nil {
			return s, nil, 0, window.Coverage{}, err
		}
	}
	sp := tr.start("window.FileWindow", parent)
	err := f.ring.FileWindow(merged, t0, t1, uint64(switches*f.size))
	tr.end(sp, 1)
	if err != nil {
		return s, nil, 0, window.Coverage{}, err
	}
	sp = tr.start("window.CardinalityOverTime", parent)
	card, cov, err := f.ring.CardinalityOverTime(window.LastWindows(1))
	tr.end(sp, 1)
	s = roundSample{ingest: t1.Sub(t0), fresh: time.Since(t1)}
	f.round = r
	return s, merged, card, cov, err
}

// roundPackets returns every switch's packets in round r.
func (f *fleet) roundPackets(r int) []keys {
	runs := make([]keys, switches)
	for i := range runs {
		runs[i] = f.packets(r, i)
	}
	return runs
}

// check compares the filed window and its answer with a serial ingest of
// both switches' packets for the round (refs holds one per distinct round
// of the cyclic trace).
func (f *fleet) check(refs []*core.Sketch, merged *core.Sketch, card float64, cov window.Coverage, t *tally) {
	want := refs[f.round%len(refs)]
	good := merged.EqualRegisters(want) && card == want.Cardinality() && cov.LastGeneration == uint64(f.round)
	t.record(nil, good, fmt.Sprintf("round %d's filed window differs from its serial ingest", f.round))
}

// wireBytes is the response payload the servers have sent, delta and full.
func (f *fleet) wireBytes() (delta, full uint64) {
	for _, s := range f.servers {
		st := s.Stats()
		delta += st.DeltaWireBytes
		full += st.FullWireBytes
	}
	return delta, full
}

// fileEmpty files an empty window, for settle.
func (f *fleet) fileEmpty() error {
	s, err := fcm.NewSketch(geometry)
	if err != nil {
		return err
	}
	now := time.Now()
	return f.ring.FileWindow(s.Core(), now, now, 0)
}

func runCollect(o options, nproc int) (*outcome, error) {
	sz := o.sz
	l, err := newLoad(sz.tracePackets, o.seed)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(l, o.corruptRef)
	if err != nil {
		return nil, err
	}
	rounds := l.packets.len() / (switches * sz.collectWindow)
	refs := ref.each(rounds, (&fleet{l: l, size: sz.collectWindow}).roundPackets)
	base := retainedBytes()

	// Set-up: switches built, servers listening, first full snapshot read.
	var setups []float64
	var f *fleet
	for i := 0; i < sz.setupReps; i++ {
		if f != nil {
			f.close()
			f = nil
		}
		runtime.GC()
		t0 := time.Now()
		if f, err = newFleet(l, sz.collectWindow, sz.collectKeep); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer f.close()
	// Untimed warm-up round.
	if _, _, _, _, err := f.next(nil, active{}); err != nil {
		return nil, err
	}

	var t tally
	tr := newTracer(o.traced)
	before := f.ring.Stats()
	delta0, full0 := f.wireBytes()
	phase := func(seconds float64, tr *tracer) (*grouped, error) {
		g := &grouped{size: sz.group}
		runtime.GC()
		begin := time.Now()
		for running(sz, begin, seconds, g) {
			op := tr.start("collect.round", active{})
			st := stealTicks()
			s, merged, card, cov, err := f.next(tr, op)
			clean := stealTicks() == st
			tr.end(op, switches*f.size)
			if err != nil {
				t.record(err, false, "collect round")
				return nil, err
			}
			g.add(switches*f.size, s.ingest, s.fresh, clean)
			f.check(refs, merged, card, cov, &t)
		}
		return g, nil
	}
	res := &outcome{checked: map[string]string{"round": "all"}, e2e: map[string]metric{},
		layers: map[string]metric{}, spans: tr}
	steal := cpuTicks()
	g, err := timed(o, res, tr, phase)
	if err != nil {
		return nil, err
	}
	stolen := stealSince(steal)
	after := f.ring.Stats()
	delta1, full1 := f.wireBytes()
	filed := float64(after.Rotations - before.Rotations)

	if o.traced {
		composed := fleetLayers(f, tr, before, after, delta1-delta0, full1-full0)
		if err := ledger(res, o, l, f.ring, switches*sz.collectWindow, 1, composed, tr.perPacketNs("fcm.Sharded.UpdateBatch"), "fcm.sharded_batch_ns"); err != nil {
			return nil, err
		}
	}

	if err := settle(f.ring, sz.collectKeep, f.fileEmpty); err != nil {
		return nil, err
	}
	retained := (float64(retainedBytes()) - float64(base)) / 1e6
	runtime.KeepAlive(l)
	runtime.KeepAlive(refs)
	runtime.KeepAlive(f)
	res.attempted, res.failed = t.attempted, t.failed
	e2e := []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
	}
	e2e = append(e2e, g.metrics()...)
	e2e = append(e2e,
		metric{Name: "retained_mb", Unit: "MB", Value: retained},
		metric{Name: "wire_kb_per_window", Unit: "KB", Value: float64(delta1-delta0+full1-full0) / 1e3 / filed, N: int(filed)},
		metric{Name: "op_fail_frac", Unit: "fraction", Value: failFrac(res), N: res.attempted},
		metric{Name: "host_steal_frac", Unit: "fraction", Value: stolen},
		metric{Name: "clean_sample_frac", Unit: "fraction", Value: g.fresh.cleanFrac(), N: g.fresh.n()},
	)
	finish(res, e2e, t.first)
	return res, nil
}

// fleetLayers derives the collection layers' figures from a fleet's spans
// and counters over a phase that filed after−before windows and sent the
// given wire bytes.
func fleetLayers(f *fleet, tr *tracer, before, after window.Stats, delta, full uint64) map[string]metric {
	filed := float64(after.Rotations - before.Rotations)
	var reads, applied, retries, fallbacks uint64
	for _, c := range f.clients {
		st := c.Stats()
		applied += st.DeltasApplied
		retries += st.Retries
		fallbacks += st.DeltaFallbacks
	}
	for _, s := range f.servers {
		st := s.Stats()
		reads += st.DeltaReads
		for _, n := range st.Fallbacks {
			fallbacks += n
		}
	}
	return map[string]metric{
		"collect.read_ms":                  {Unit: "ms", Value: median(tr.selfPerUnit("collect.ReadSketch"))},
		"collect.reset_ms":                 {Unit: "ms", Value: median(tr.selfPerUnit("collect.ResetSketch"))},
		"collect.restore_ms":               {Unit: "ms", Value: median(tr.selfPerUnit("collect.Restore"))},
		"core.merge_ms":                    {Unit: "ms", Value: median(tr.selfPerUnit("core.Merge"))},
		"window.file_window_ms":            {Unit: "ms", Value: median(tr.selfPerUnit("window.FileWindow"))},
		"window.coarsen_merges_per_rotate": {Unit: "count", Value: mergesPerRotate(before, after)},
		"window.resident_mb":               {Unit: "MB", Value: float64(after.ResidentBytes) / 1e6},
		"collect.delta_frac":               {Unit: "fraction", Value: float64(applied) / float64(max(reads, 1))},
		"collect.delta_kb":                 {Unit: "KB", Value: float64(delta) / 1e3 / filed},
		"collect.full_kb":                  {Unit: "KB", Value: float64(full) / 1e3 / filed},
		"collect.fallbacks":                {Unit: "count", Value: float64(fallbacks)},
		"collect.retries":                  {Unit: "count", Value: float64(retries)},
	}
}

package main

import (
	"errors"
	"runtime"
	"time"

	fcm "github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/collect"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/insight"
	"github.com/fcmsketch/fcm/internal/window"
)

// ladderTolerance is the largest |ladder.unexplained_frac| the ledger
// accepts: the isolated rungs must account for the composed per-packet
// ingest cost to within this share, or the report flags the ledger as not
// adding up.
const ladderTolerance = 0.2

// Rung spans carry this prefix so they never mix with a workload's spans
// of the same public call.
const rungPrefix = "ladder/"

// rungs is the ingest ladder, bottom first: each public entry replays the
// same 256-key batches, and each rung's self time is its figure minus the
// rung below it. Engine, Sharded and ring rungs use the workload's own shard
// count. The last rung repeats the ring rung with nproc writers in
// parallel, so lock contention between writers is a rung of its own.
var rungs = []string{
	"hashing.pair_ns", "core.update_batch_ns", "engine.shard_batch_ns", "engine.batcher_ns",
	"fcm.sharded_batch_ns", "window.update_batch_ns", "ladder.parallel_ring_ns",
}

// ledgerRun times isolated public calls, each inside a span under one
// ledger operation.
type ledgerRun struct {
	tr     *tracer
	parent active
}

// time runs fn reps times as a span named name covering units calls,
// after an untimed prepare, and returns per-unit milliseconds.
func (lg *ledgerRun) time(name string, reps, units int, prepare func(), fn func() error) ([]float64, error) {
	var out []float64
	for i := 0; i < reps; i++ {
		if prepare != nil {
			prepare()
		}
		sp := lg.tr.start(name, lg.parent)
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		lg.tr.end(sp, units)
		if err != nil {
			return nil, err
		}
		out = append(out, ms(d)/float64(units))
	}
	return out, nil
}

// ledger fills res.layers with every per-layer metric: the workload's own
// composed figures where it exercises the layer, and isolated timings of
// the public calls on the workload's trace, ring and sketches otherwise.
// shards is the shard count of the workload's data plane, composedNs its
// per-writer busy time per packet on its ingest path, and top the ladder
// rung that path corresponds to.
func ledger(res *outcome, o options, l *load, ring *window.Ring, windowPackets, shards int, composed map[string]metric, composedNs float64, top string) error {
	sz := o.sz
	nproc := runtime.GOMAXPROCS(0)
	lg := &ledgerRun{tr: res.spans}
	lg.parent = lg.tr.start("ledger", active{})
	defer lg.tr.end(lg.parent, 1)
	lay := res.layers
	put := func(name, unit string, v float64) { lay[name] = metric{Unit: unit, Value: v} }

	if err := ladder(lg, l, sz, shards, nproc, put); err != nil {
		return err
	}
	if err := sketchCalls(lg, l, sz, ring, windowPackets, put); err != nil {
		return err
	}
	if err := codecCalls(lg, l, sz, put); err != nil {
		return err
	}
	if _, ok := composed["collect.read_ms"]; !ok {
		// The workload has no fleet: time a short collection session of its
		// own on the same trace.
		f, err := newFleet(l, sz.collectWindow, sz.collectKeep)
		if err != nil {
			return err
		}
		defer f.close()
		if _, _, _, _, err := f.next(nil, active{}); err != nil {
			return err
		}
		before := f.ring.Stats()
		d0, f0 := f.wireBytes()
		for i := 0; i < sz.ledgerRounds; i++ {
			if _, _, _, _, err := f.next(lg.tr, lg.parent); err != nil {
				return err
			}
		}
		after := f.ring.Stats()
		d1, f1 := f.wireBytes()
		fl := fleetLayers(f, lg.tr, before, after, d1-d0, f1-f0)
		for _, k := range []string{"collect.read_ms", "collect.reset_ms", "collect.restore_ms", "window.file_window_ms",
			"collect.delta_frac", "collect.delta_kb", "collect.full_kb", "collect.fallbacks", "collect.retries"} {
			if _, ok := composed[k]; !ok {
				composed[k] = fl[k]
			}
		}
	}
	for k, m := range composed {
		lay[k] = m
	}

	// collect.net_ms: a read minus its isolated server-side parts
	// (snapshot copy of the one-shard switch, TakeSnapshot, diff, state
	// CRC, encode) and client-side parts (decode, apply, state CRC) —
	// loopback TCP plus request dispatch.
	v := func(k string) float64 { return lay[k].Value }
	server := v("core.clone_ms") + v("collect.take_snapshot_ms") + v("collect.diff_ms") + v("collect.state_crc_ms") + v("collect.encode_ms")
	client := v("collect.decode_ms") + v("collect.apply_ms") + v("collect.state_crc_ms")
	put("collect.net_ms", "ms", v("collect.read_ms")-server-client)

	// The ladder's ledger check and the two ROADMAP gaps, base core.
	unexplained := 0.0
	if composedNs > 0 {
		unexplained = (composedNs - v(top)) / composedNs
	}
	put("ladder.composed_ns", "ns", composedNs)
	put("ladder.unexplained_frac", "fraction", unexplained)
	put("ladder.batcher_gap_ns", "ns", v("engine.batcher_ns")-v("core.update_batch_ns"))
	put("ladder.sharded_gap_ns", "ns", v("fcm.sharded_batch_ns")-v("core.update_batch_ns"))
	res.report = append(res.report, metric{Name: "ladder_within_tolerance", Unit: "bool",
		Value: boolValue(unexplained <= ladderTolerance && unexplained >= -ladderTolerance)})
	return nil
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// ladder times the ingest rungs, interleaved rep by rep so drift on the
// box spreads over every rung alike, plus the engine's and ring's window
// operations on the state the rungs leave behind.
func ladder(lg *ledgerRun, l *load, sz sizes, shards, nproc int, put func(string, string, float64)) error {
	sample := l.window(0, sz.ladderPackets)
	n := sample.len()
	base, err := fcm.NewSketch(geometry)
	if err != nil {
		return err
	}
	sk := base.Core()
	wide := dataPlaneFamily.Wide()
	var sink uint32
	eng, err := fcm.NewSharded(geometry, shards)
	if err != nil {
		return err
	}
	sharded, err := fcm.NewSharded(geometry, shards)
	if err != nil {
		return err
	}
	ring, err := window.New(window.Config{Sketch: geometry, Shards: shards, MaxWindows: 2})
	if err != nil {
		return err
	}
	bat := eng.Engine().NewBatcher(batch, 1)
	calls := []func() error{
		func() error {
			return replay(sample, func(keys [][]byte, _ uint64) error {
				for _, k := range keys {
					pc, pb := wide.Pair(k)
					sink += pc ^ pb
				}
				return nil
			})
		},
		func() error { return replay(sample, noErr(sk.UpdateBatch)) },
		func() error {
			return replay(sample, func(keys [][]byte, inc uint64) error {
				eng.Engine().UpdateShardBatch(0, keys, inc)
				return nil
			})
		},
		func() error {
			for i := 0; i < n; i++ {
				bat.Add(sample.key(i))
			}
			bat.Flush()
			return nil
		},
		func() error { return replay(sample, noErr(sharded.UpdateBatch)) },
		func() error { return replay(sample, ring.UpdateBatch) },
		func() error {
			return parallel(sample, nproc, func(part keys) error { return replay(part, ring.UpdateBatch) })
		},
	}
	resets := []func(){func() {}, sk.Reset, eng.Reset, eng.Reset, sharded.Reset, func() {}, func() {}}
	perRung := make([][]float64, len(rungs))
	var engRotate, engSnap, ringRotate []float64
	for rep := 0; rep < sz.ladderReps; rep++ {
		for i, call := range calls {
			units := n
			if i == len(calls)-1 {
				units = n / nproc // per writer, like the composed figure
			}
			got, err := lg.time(rungPrefix+rungs[i], 1, units, resets[i], call)
			if err != nil {
				return err
			}
			perRung[i] = append(perRung[i], got[0]*1e6)
			switch i {
			case 3: // the batcher filled every engine shard
				got, err := lg.time("engine.Snapshot", 1, 1, nil, func() error { eng.Engine().Snapshot(); return nil })
				if err != nil {
					return err
				}
				engSnap = append(engSnap, got...)
				if got, err = lg.time("engine.Rotate", 1, 1, nil, func() error { eng.Engine().Rotate(); return nil }); err != nil {
					return err
				}
				engRotate = append(engRotate, got...)
			case 5, 6:
				got, err := lg.time("window.Rotate", 1, 1, nil, ring.Rotate)
				if err != nil {
					return err
				}
				ringRotate = append(ringRotate, got...)
			}
		}
	}
	runtime.KeepAlive(sink)
	for i, name := range rungs {
		put(name, "ns", median(perRung[i]))
	}
	put("engine.snapshot_ms", "ms", median(engSnap))
	put("engine.rotate_ms", "ms", median(engRotate))
	put("window.rotate_ms", "ms", median(ringRotate))
	put("fcm.resident_mb", "MB", float64(sharded.ResidentBytes())/1e6)
	return nil
}

// sketchCalls times the core, em and insight calls and the ring's fold on
// the workload's own ring.
func sketchCalls(lg *ledgerRun, l *load, sz sizes, ring *window.Ring, windowPackets int, put func(string, string, float64)) error {
	newest, _, err := ring.SnapshotOverTime(window.LastWindows(1))
	if err != nil {
		return err
	}
	older, _, err := ring.SnapshotOverTime(window.LastWindows(2))
	if err != nil {
		return err
	}
	// EM, virtual counters and insight see the same input size in every
	// workload: the newest windows covering as many packets as the query
	// workload's EM class.
	wide, _, err := ring.SnapshotOverTime(window.LastWindows(max(1, emWindows*sz.queryWindow/windowPackets)))
	if err != nil {
		return err
	}
	var cov window.Coverage
	fold, err := lg.time("window.SnapshotOverTime", sz.isoReps, 1, nil, func() error {
		var err error
		_, cov, err = ring.SnapshotOverTime(window.LastWindows(0))
		return err
	})
	if err != nil {
		return err
	}
	put("window.fold_ms_per_bucket", "ms", median(fold)/float64(max(cov.Buckets, 1)))
	_, cov64, err := ring.SnapshotOverTime(window.LastWindows(64))
	if err != nil {
		return err
	}
	put("window.covering_buckets", "count", float64(cov64.Buckets))
	put("window.resident_mb", "MB", float64(ring.Stats().ResidentBytes)/1e6)

	var dst *core.Sketch
	merge, err := lg.time("core.Merge", sz.isoReps, 1, func() { dst = newest.Clone() }, func() error { return dst.Merge(older) })
	if err != nil {
		return err
	}
	put("core.merge_ms", "ms", median(merge))
	const group = 16 // sub-millisecond calls are timed in groups
	clone, err := lg.time("core.Clone", sz.isoReps, group, nil, func() error {
		for i := 0; i < group; i++ {
			dst = newest.Clone()
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("core.clone_ms", "ms", median(clone))
	keys := l.flows[:min(len(l.flows), 4096)]
	var sink uint64
	est, err := lg.time("core.Estimate", sz.isoReps, len(keys), nil, func() error {
		for _, k := range keys {
			sink += newest.Estimate(k)
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("core.estimate_ns", "ns", median(est)*1e6)
	card, err := lg.time("core.Cardinality", sz.isoReps, group, nil, func() error {
		for i := 0; i < group; i++ {
			sink += uint64(newest.Cardinality())
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("core.cardinality_ms", "ms", median(card))
	var vcs [][]core.VirtualCounter
	vc, err := lg.time("core.VirtualCounters", sz.isoReps, 1, nil, func() error { vcs = wide.VirtualCounters(); return nil })
	if err != nil {
		return err
	}
	put("core.virtual_counters_ms", "ms", median(vc))
	var iters int
	emReps := max(1, sz.isoReps/3) // EM runs take hundreds of milliseconds
	run, err := lg.time("em.Run", emReps, 1, nil, func() error {
		r, err := em.Run(em.Config{W1: wide.LeafWidth(), Theta1: wide.StageMax(0), Workers: 1}, vcs)
		if err == nil {
			iters = r.Iterations
		}
		return err
	})
	if err != nil {
		return err
	}
	put("em.run_ms", "ms", median(run))
	put("em.iterations", "count", float64(iters))
	obs, err := lg.time("insight.Observe", sz.isoReps, 1, nil, func() error {
		if insight.Observe(wide).Geometry.Trees == 0 {
			return errors.New("insight.Observe saw no trees")
		}
		return nil
	})
	if err != nil {
		return err
	}
	put("insight.observe_ms", "ms", median(obs))
	runtime.KeepAlive(sink)
	return nil
}

// codecCalls times the collection codec on two consecutive states of one
// switch: the windows switch 0 holds in collect's first two rounds.
func codecCalls(lg *ledgerRun, l *load, sz sizes, put func(string, string, float64)) error {
	var states [2]*core.Sketch
	for i := range states {
		s, err := fcm.NewSketch(geometry)
		if err != nil {
			return err
		}
		if err := replay(l.window(switches*i, sz.collectWindow), noErr(s.UpdateBatch)); err != nil {
			return err
		}
		states[i] = s.Core()
	}
	prev := collect.TakeSnapshot(states[0])
	var cur *collect.Snapshot
	take, err := lg.time("collect.TakeSnapshotInto", sz.isoReps, 1, nil, func() error {
		cur = collect.TakeSnapshotInto(cur, states[1])
		return nil
	})
	if err != nil {
		return err
	}
	var blocks []collect.DeltaBlock
	diff, err := lg.time("collect.DiffSnapshots", sz.isoReps, 1, nil, func() error {
		var ok bool
		if blocks, ok = collect.DiffSnapshots(prev, cur); !ok {
			return errors.New("snapshots of one geometry did not diff")
		}
		return nil
	})
	if err != nil {
		return err
	}
	var crc uint32
	crcT, err := lg.time("collect.StateCRC", sz.isoReps, 1, nil, func() error { crc = cur.StateCRC(); return nil })
	if err != nil {
		return err
	}
	frame := &collect.DeltaFrame{BaseGen: 1, NewGen: 2, StateCRC: crc, Blocks: blocks}
	var wire []byte
	enc, err := lg.time("collect.DeltaFrame.AppendEncode", sz.isoReps, 1, nil, func() error {
		var err error
		wire, err = frame.AppendEncode(wire[:0])
		return err
	})
	if err != nil {
		return err
	}
	var decoded *collect.DeltaFrame
	dec, err := lg.time("collect.DecodeDeltaFrame", sz.isoReps, 1, nil, func() error {
		var err error
		decoded, err = collect.DecodeDeltaFrame(wire)
		return err
	})
	if err != nil {
		return err
	}
	var applied *collect.Snapshot
	apply, err := lg.time("collect.ApplyDelta", sz.isoReps, 1, nil, func() error {
		var err error
		applied, err = collect.ApplyDelta(prev, decoded.Blocks)
		return err
	})
	if err != nil {
		return err
	}
	if applied.StateCRC() != crc {
		return errors.New("applied delta does not reproduce the snapshot it was diffed to")
	}
	restore, err := lg.time("collect.Snapshot.Restore", sz.isoReps, 1, nil, func() error {
		_, err := cur.Restore(dataPlaneFamily)
		return err
	})
	if err != nil {
		return err
	}
	put("collect.take_snapshot_ms", "ms", median(take))
	put("collect.diff_ms", "ms", median(diff))
	put("collect.state_crc_ms", "ms", median(crcT))
	put("collect.encode_ms", "ms", median(enc))
	put("collect.decode_ms", "ms", median(dec))
	put("collect.apply_ms", "ms", median(apply))
	put("collect.restore_ms", "ms", median(restore))
	return nil
}

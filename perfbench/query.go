package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	fcm "github.com/fcmsketch/fcm"
	"github.com/fcmsketch/fcm/internal/core"
	"github.com/fcmsketch/fcm/internal/window"
)

// Query classes: one latency percentile per class.
const (
	classL1 = iota
	classL16
	classFold // the 64-window closed lookback: fold_p50_ms, fold_p90_ms
	classAll
	classLive // 16 windows plus the live window: live_p50_ms
	classEM   // FSDOverTime / EntropyOverTime over emWindows: em_p50_ms
	numClasses
)

// emWindows is the EM class's lookback. EM over 4 windows (128 Ki packets)
// takes a few hundred milliseconds on one worker, so the class gets enough
// samples for a median within one run.
const emWindows = 4

var classNames = [numClasses]string{"lookback1", "lookback16", "fold", "lookback_all", "live", "em"}

// classCycle is the client's mix: requests per class in one cycle, which
// the client replays in a seeded shuffled order. The fold class gets the
// most requests so its p90 has ten samples beyond it; one EM request takes
// about as long as all the others of a cycle together.
var classCycle = [numClasses]int{7, 10, 20, 3, 7, 1}

// checkCaps is how many answers per class the check re-derives from a
// serial ingest (evenly spaced over the run); the rest are counted as
// attempted and fail only on an error. Long lookbacks cost a serial
// re-ingest of every covered window, so fewer of them are checked.
var checkCaps = [numClasses]int{1 << 30, 24, 12, 4, 24, 1 << 30}

// hhCandidates and hhThreshold shape HeavyHittersOverTime requests.
const (
	hhCandidates = 64
	hhThreshold  = 1000
)

// answer is one completed query with what the check needs.
type answer struct {
	class, kind int // kind: 0 count, 1 heavy hitters, 2 cardinality (EM: 0 FSD, 1 entropy)
	cov         window.Coverage
	count       uint64
	card        float64
	hh          map[string]uint64
	dist        []float64
	err         error
}

func lookbackOf(class int) window.Lookback {
	switch class {
	case classL1:
		return window.LastWindows(1)
	case classL16:
		return window.LastWindows(16)
	case classEM:
		return window.LastWindows(emWindows)
	case classFold:
		return window.LastWindows(64)
	case classLive:
		return window.LastWindows(16).WithLive()
	}
	return window.LastWindows(0)
}

// ask runs one request of the class on the ring.
func ask(r *window.Ring, l *load, class, kind int) answer {
	a := answer{class: class, kind: kind}
	lb := lookbackOf(class)
	if class == classEM {
		opt := &fcm.EMOptions{Workers: 1}
		if kind == 0 {
			a.dist, a.cov, a.err = r.FSDOverTime(lb, opt)
		} else {
			a.card, a.cov, a.err = r.EntropyOverTime(lb, opt)
		}
		return a
	}
	switch kind {
	case 0:
		a.count, a.cov, a.err = r.QueryOverTime(l.flows[0], lb)
	case 1:
		a.hh, a.cov, a.err = r.HeavyHittersOverTime(l.flows[:hhCandidates], hhThreshold, lb)
	default:
		a.card, a.cov, a.err = r.CardinalityOverTime(lb)
	}
	return a
}

// checkAnswer re-derives a from a serial ingest of the windows its
// coverage names. Closed answers must match exactly; a live answer must be
// at least its closed-only part; EM answers must be finite and
// non-negative.
func checkAnswer(a answer, l *load, size int, ref *reference) bool {
	if a.err != nil {
		return false
	}
	if a.class == classEM {
		if a.kind == 1 {
			return a.card >= 0 && !math.IsNaN(a.card) && !math.IsInf(a.card, 0)
		}
		for _, v := range a.dist {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return len(a.dist) > 1
	}
	var runs []keys
	for g := a.cov.FirstGeneration; g <= a.cov.LastGeneration && g > 0; g++ {
		runs = append(runs, l.window(int(g), size))
	}
	want := ref.of(runs...)
	live := a.cov.IncludesLive
	switch a.kind {
	case 0:
		w := want.Estimate(l.flows[0])
		return a.count == w || (live && a.count >= w)
	case 1:
		return hhAgrees(a.hh, want, l, live)
	default:
		w := want.Cardinality()
		return a.card == w || (live && a.card >= w)
	}
}

// hhAgrees compares a heavy-hitter answer with the reference's: equal for
// a closed lookback, a superset with estimates at least as large for live.
func hhAgrees(got map[string]uint64, want *core.Sketch, l *load, live bool) bool {
	n := 0
	for _, k := range l.flows[:hhCandidates] {
		est := want.Estimate(k)
		if est < hhThreshold {
			continue
		}
		n++
		g, ok := got[string(k)]
		if !ok || g < est || (!live && g != est) {
			return false
		}
	}
	return live || len(got) == n
}

func runQuery(o options, nproc int) (*outcome, error) {
	sz := o.sz
	l, err := newLoad(sz.tracePackets, o.seed)
	if err != nil {
		return nil, err
	}
	ref, err := newReference(l, o.corruptRef)
	if err != nil {
		return nil, err
	}
	base := retainedBytes()

	// Set-up: build the ring — one shard, owned by its one writer — and
	// fill it to its retention with nproc writers, so coarsening is at
	// steady state.
	var setups []float64
	var ri *ringIngest
	for i := 0; i < sz.querySetupReps; i++ {
		ri = nil
		runtime.GC()
		t0 := time.Now()
		ring, err := window.New(window.Config{Sketch: geometry, Shards: 1, MaxWindows: sz.queryRetention})
		if err != nil {
			return nil, err
		}
		ri = &ringIngest{l: l, ring: ring, size: sz.queryWindow, writers: nproc}
		for g := 0; g < sz.queryRetention; g++ {
			if _, err := ri.fill(nil, active{}); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	ri.writers = 1
	// Untimed warm-up: every class and kind once.
	for c := 0; c < numClasses; c++ {
		for k := 0; k < 3; k++ {
			if a := ask(ri.ring, l, c, k); a.err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", classNames[c], a.err)
			}
		}
	}

	var t tally
	tr := newTracer(o.traced)
	mix := rand.New(rand.NewSource(o.seed))
	var cycle []int
	for c, n := range classCycle {
		for i := 0; i < n; i++ {
			cycle = append(cycle, c)
		}
	}
	var asked [numClasses]int
	var answers []answer
	var lat [numClasses]samples
	type fresh struct {
		gen  int
		card float64
		cov  window.Coverage
		err  error
	}
	var fresher []fresh
	before := ri.ring.Stats()

	phase := func(seconds float64, tr *tracer) (*grouped, error) {
		lat = [numClasses]samples{} // latencies are of the last phase only
		g := &grouped{size: sz.group}
		runtime.GC()
		var stop atomic.Bool
		var groups atomic.Int64 // full groups so far
		var writerDone atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // the closed-loop writer: ingest, rotate, fresh answer
			defer wg.Done()
			defer writerDone.Store(true)
			for !stop.Load() {
				op := tr.start("query.writer_window", active{})
				st := stealTicks()
				s, card, cov, err := ri.next(tr, op)
				clean := stealTicks() == st
				tr.end(op, ri.size)
				fresher = append(fresher, fresh{ri.gen, card, cov, err})
				if err != nil {
					return
				}
				g.add(ri.size, s.ingest+s.rotate, s.rotate+s.answer, clean)
				groups.Store(int64(g.groups()))
			}
		}()
		// Run for the given seconds, and on until every class has a sample:
		// at most one more cycle, since every cycle holds every class.
		begin := time.Now()
		unsampled := func() bool {
			for c := range lat {
				if lat[c].n() == 0 {
					return true
				}
			}
			return groups.Load() == 0 && !writerDone.Load()
		}
		for i, el := 0, 0.0; el < seconds || unsampled(); i, el = i+1, time.Since(begin).Seconds() {
			if i%len(cycle) == 0 {
				mix.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
			}
			c := cycle[i%len(cycle)]
			kinds := 3
			if c == classEM {
				kinds = 2
			}
			kind := asked[c] % kinds
			asked[c]++
			sp := tr.start("query."+classNames[c], active{})
			st := stealTicks()
			t0 := time.Now()
			a := ask(ri.ring, l, c, kind)
			lat[c].add(since(t0), stealTicks() == st)
			tr.end(sp, a.cov.Buckets)
			answers = append(answers, a)
		}
		stop.Store(true)
		wg.Wait()
		return g, nil
	}

	res := &outcome{checked: map[string]string{}, e2e: map[string]metric{}, layers: map[string]metric{}, spans: tr}
	steal := cpuTicks()
	g, err := timed(o, res, tr, phase)
	if err != nil {
		return nil, err
	}
	stolen := stealSince(steal)
	after := ri.ring.Stats()

	// Checks, outside the timed phase.
	for _, f := range fresher {
		good := f.err == nil && f.card == ref.of(l.window(f.gen, ri.size)).Cardinality() &&
			f.cov.LastGeneration == uint64(f.gen)
		t.record(f.err, good, fmt.Sprintf("fresh answer on window %d", f.gen))
	}
	res.checked["fresh"] = "all"
	var perClass [numClasses][]answer
	for _, a := range answers {
		perClass[a.class] = append(perClass[a.class], a)
	}
	for c, as := range perClass {
		step := max(1, (len(as)+checkCaps[c]-1)/checkCaps[c])
		checked := 0
		for i, a := range as {
			if i%step != 0 {
				t.record(a.err, true, classNames[c])
				continue
			}
			checked++
			t.record(a.err, checkAnswer(a, l, ri.size, ref), fmt.Sprintf("%s answer (kind %d) over windows %d..%d",
				classNames[c], a.kind, a.cov.FirstGeneration, a.cov.LastGeneration))
		}
		res.checked[classNames[c]] = fmt.Sprintf("%d/%d", checked, len(as))
	}
	var covering []float64
	for _, a := range perClass[classFold] {
		covering = append(covering, float64(a.cov.Buckets))
	}
	// The answers are the benchmark's records, not the system's state:
	// drop them before the heap is read.
	answers, perClass = nil, [numClasses][]answer{}

	if o.traced {
		composed := map[string]metric{
			"window.rotate_ms":                 {Unit: "ms", Value: median(tr.selfPerUnit("window.Rotate"))},
			"window.covering_buckets":          {Unit: "count", Value: median(covering)},
			"window.coarsen_merges_per_rotate": {Unit: "count", Value: mergesPerRotate(before, after)},
			"window.resident_mb":               {Unit: "MB", Value: float64(after.ResidentBytes) / 1e6},
		}
		if err := ledger(res, o, l, ri.ring, sz.queryWindow, 1, composed, tr.perPacketNs("window.UpdateBatch"), "window.update_batch_ns"); err != nil {
			return nil, err
		}
	}

	if err := settle(ri.ring, sz.queryRetention, ri.ring.Rotate); err != nil {
		return nil, err
	}
	retained := (float64(retainedBytes()) - float64(base)) / 1e6
	runtime.KeepAlive(l)
	runtime.KeepAlive(ref)
	runtime.KeepAlive(ri)
	res.attempted, res.failed = t.attempted, t.failed
	e2e := []metric{
		{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
	}
	e2e = append(e2e, g.metrics()...)
	e2e = append(e2e, []metric{
		{Name: "retained_mb", Unit: "MB", Value: retained},
		{Name: "fold_p50_ms", Unit: "ms", Value: lat[classFold].median(), N: len(lat[classFold].use())},
		{Name: "fold_p90_ms", Unit: "ms", Value: lat[classFold].p90(), N: beyond(len(lat[classFold].use()), 0.9)},
		{Name: "live_p50_ms", Unit: "ms", Value: lat[classLive].median(), N: len(lat[classLive].use())},
		{Name: "em_p50_ms", Unit: "ms", Value: lat[classEM].median(), N: len(lat[classEM].use())},
		{Name: "op_fail_frac", Unit: "fraction", Value: failFrac(res), N: res.attempted},
		{Name: "host_steal_frac", Unit: "fraction", Value: stolen},
		{Name: "clean_sample_frac", Unit: "fraction", Value: g.fresh.cleanFrac(), N: g.fresh.n()},
	}...)
	for _, c := range []int{classL1, classL16, classAll} {
		e2e = append(e2e, metric{Name: classNames[c] + "_p50_ms", Unit: "ms", Value: lat[c].median(), N: len(lat[c].use())})
	}
	finish(res, e2e, t.first)
	return res, nil
}

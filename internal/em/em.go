// Package em implements the Expectation-Maximization estimator of the flow
// size distribution (§4.2–§4.3 and Appendix A of the FCM paper). It
// consumes the virtual counter arrays produced by the control-plane
// conversion (internal/core §4.1) and iteratively refines the estimated
// number of flows of each size.
//
// Model: flows of size j land in a virtual counter of degree ξ following
// Poisson(n_j·ξ/w1). For each non-empty virtual counter, the posterior over
// the flow combinations Ω(V,ξ) that could have produced its value is
// computed by Bayes' rule, restricted by the paper's overflow-feasibility
// constraints, and the expected per-size flow counts are accumulated.
//
// The combination sets use the paper's truncation heuristics (§4.3):
//
//   - degree 1: all partitions of V into at most 1+ExtraParts parts are
//     enumerated while V ≤ EnumCap; larger counters are resolved as a
//     single heavy flow (exactly MRAC's large-counter treatment).
//   - degree ξ ≥ 2: each of the ξ merged leaf paths must have overflowed,
//     so every flow is at least θ1+1; the enumeration offsets every part
//     by θ1+1 and partitions only the remainder. Larger remainders resolve
//     deterministically as ξ−1 minimal overflowing flows plus one elephant.
//
// Counters with identical (degree, value) share one enumeration, and the
// multi-threaded driver (Workers > 1) fans work items out over a pool —
// reproducing the FCM(s) vs FCM(m) comparison of Fig. 9a.
package em

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/fcmsketch/fcm/internal/core"
)

// Config parameterizes the estimator.
type Config struct {
	// W1 is the number of leaf nodes per tree (hash range), required.
	W1 int
	// Theta1 is the leaf counting capacity 2^b1−2. It drives the
	// overflow-feasibility constraint for degree ≥ 2 counters. Zero is
	// valid for MRAC-style inputs, where every counter has degree 1.
	Theta1 uint64
	// Iterations is the number of EM rounds (the paper observes
	// stabilization within 5; default 8).
	Iterations int
	// EnumCap bounds the enumerated remainder value (default 500).
	EnumCap int
	// ExtraParts is how many parts beyond the minimum a combination may
	// have for degree-1 counters (default 2, i.e. up to 3 flows).
	ExtraParts int
	// Workers sets the parallelism: 1 = single-threaded (FCM(s)),
	// 0 = GOMAXPROCS (FCM(m)).
	Workers int
	// MaxSpan bounds the largest virtual-counter value accepted. The
	// estimator allocates O(max value) floats for the distribution, so an
	// absurd counter — a corrupt or hostile snapshot decoded off the wire
	// — would otherwise translate directly into a multi-gigabyte
	// allocation. Zero selects DefaultMaxSpan; raise it explicitly for
	// trusted inputs with genuinely enormous flows.
	MaxSpan uint64
	// OnIteration, when non-nil, receives the distribution estimate after
	// every iteration (used by the Fig. 9b convergence experiment). The
	// slice must not be retained.
	OnIteration func(iter int, dist []float64)
	// Metrics, when non-nil, receives run/iteration counts and latency.
	Metrics *Metrics
}

// DefaultMaxSpan is the default bound on virtual-counter values (and thus
// on the length of the estimated distribution): 2^26 ≈ 67M packets in one
// flow, comfortably above the ~100K-packet elephants of the paper's traces
// while keeping the worst-case distribution allocation around half a
// gigabyte instead of the 32GB a forged 32-bit root counter could demand.
const DefaultMaxSpan = 1 << 26

// Result holds the final estimates.
type Result struct {
	// Dist[j] is the estimated number of flows of size j (index 0 unused).
	Dist []float64
	// N is the estimated total number of flows.
	N float64
	// Iterations is the number of rounds run.
	Iterations int
}

// group is a set of identical virtual counters within one tree.
type group struct {
	tree   int
	degree int
	value  uint64
	count  int
}

// Run executes the EM algorithm over the per-tree virtual counter arrays.
func Run(cfg Config, trees [][]core.VirtualCounter) (*Result, error) {
	if cfg.W1 <= 0 {
		return nil, fmt.Errorf("em: W1 must be positive, got %d", cfg.W1)
	}
	if len(trees) == 0 {
		return nil, fmt.Errorf("em: no virtual counter arrays")
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 8
	}
	if cfg.EnumCap <= 0 {
		cfg.EnumCap = 500
	}
	if cfg.ExtraParts < 0 {
		cfg.ExtraParts = 0
	} else if cfg.ExtraParts == 0 {
		cfg.ExtraParts = 2
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	groups, zmax := buildGroups(trees)
	if zmax == 0 {
		// Empty sketch: nothing to estimate.
		return &Result{Dist: make([]float64, 1), Iterations: 0}, nil
	}
	span := cfg.MaxSpan
	if span == 0 {
		span = DefaultMaxSpan
	}
	if zmax > span {
		return nil, fmt.Errorf("em: virtual counter value %d exceeds the %d span limit "+
			"(corrupt snapshot? raise Config.MaxSpan for trusted inputs)", zmax, span)
	}

	e := &engine{cfg: cfg, groups: groups, zmax: zmax, d: len(trees), workers: workers}
	e.init(trees)
	if m := cfg.Metrics; m != nil {
		m.Runs.Inc()
		defer m.RunSeconds.ObserveSince(time.Now())
	}
	for it := 0; it < cfg.Iterations; it++ {
		iterStart := time.Now()
		e.iterate()
		if m := cfg.Metrics; m != nil {
			m.Iterations.Inc()
			m.IterSeconds.ObserveSince(iterStart)
		}
		if cfg.OnIteration != nil {
			cfg.OnIteration(it+1, e.dist)
		}
	}
	n := 0.0
	for _, v := range e.dist[1:] {
		n += v
	}
	return &Result{Dist: e.dist, N: n, Iterations: cfg.Iterations}, nil
}

// buildGroups collapses equal (tree, degree, value) counters and returns
// the groups, in (tree, degree, value) order, plus the maximum counter
// value. The fixed order keeps every floating-point sum over the groups,
// and so the result, identical across runs.
func buildGroups(trees [][]core.VirtualCounter) ([]group, uint64) {
	type gkey struct {
		tree, degree int
		value        uint64
	}
	counts := make(map[gkey]int)
	var zmax uint64
	for t, vcs := range trees {
		for _, vc := range vcs {
			if vc.Value == 0 {
				continue // empty counters admit only the empty combination
			}
			counts[gkey{t, vc.Degree, vc.Value}]++
			if vc.Value > zmax {
				zmax = vc.Value
			}
		}
	}
	groups := make([]group, 0, len(counts))
	for k, c := range counts {
		groups = append(groups, group{tree: k.tree, degree: k.degree, value: k.value, count: c})
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := &groups[i], &groups[j]
		if a.tree != b.tree {
			return a.tree < b.tree
		}
		if a.degree != b.degree {
			return a.degree < b.degree
		}
		return a.value < b.value
	})
	return groups, zmax
}

// engine carries the mutable EM state.
type engine struct {
	cfg     Config
	groups  []group
	zmax    uint64
	d       int
	workers int
	dist    []float64   // current n_j estimates
	logFact []float64   // log(k!) table
	logRun  [16]float64 // log(r) for small run lengths (hot path)
}

// init seeds the estimate with the observed distribution: each counter of
// degree ξ contributes ξ flows of size ≈ value/ξ, the "count queries of all
// hash indices" initialization of §4.3, averaged over trees.
func (e *engine) init(trees [][]core.VirtualCounter) {
	e.dist = make([]float64, e.zmax+1)
	for _, g := range e.groups {
		size := g.value / uint64(g.degree)
		if size < 1 {
			size = 1
		}
		e.dist[size] += float64(g.count*g.degree) / float64(e.d)
	}
	e.logFact = make([]float64, 64)
	for i := 2; i < len(e.logFact); i++ {
		e.logFact[i] = e.logFact[i-1] + math.Log(float64(i))
	}
	for i := 1; i < len(e.logRun); i++ {
		e.logRun[i] = math.Log(float64(i))
	}
	// Order groups by descending enumeration cost so the strided parallel
	// schedule balances the heavy enumerations across workers. Cost is
	// proportional to the partition count, ~v^(parts−1). The sort is
	// stable, so groups of equal cost keep buildGroups' fixed order.
	cost := func(g *group) float64 {
		v := float64(g.value)
		if g.value > uint64(e.cfg.EnumCap) {
			return 1 // deterministic resolution
		}
		parts := float64(1 + e.cfg.ExtraParts)
		if g.degree > 1 {
			parts = float64(g.degree)
		}
		return math.Pow(v, parts-1)
	}
	sort.SliceStable(e.groups, func(i, j int) bool {
		return cost(&e.groups[i]) > cost(&e.groups[j])
	})
}

// iterate performs one E+M round: recompute the expected per-size flow
// counts under the current estimate.
func (e *engine) iterate() {
	// Precompute log(n_j / w1); a small floor keeps unobserved sizes
	// reachable so the posterior never collapses to an empty support.
	logLam := make([]float64, len(e.dist))
	const floor = 1e-12
	logW1 := math.Log(float64(e.cfg.W1))
	for j := 1; j < len(e.dist); j++ {
		v := e.dist[j]
		if v < floor {
			v = floor
		}
		logLam[j] = math.Log(v) - logW1
	}

	next := make([]float64, len(e.dist))
	if e.workers <= 1 {
		var sc scratch
		for i := range e.groups {
			e.processGroup(&e.groups[i], logLam, next, &sc)
		}
	} else {
		// Groups are pre-sorted by descending enumeration cost (init), so
		// a strided assignment balances the expensive few across workers.
		// The partials are summed in worker order, not completion order,
		// so the result does not depend on scheduling.
		partials := make([][]float64, e.workers)
		var wg sync.WaitGroup
		for w := range partials {
			wg.Add(1)
			go func(start int) {
				defer wg.Done()
				local := make([]float64, len(e.dist))
				var sc scratch
				for i := start; i < len(e.groups); i += e.workers {
					e.processGroup(&e.groups[i], logLam, local, &sc)
				}
				partials[start] = local
			}(w)
		}
		wg.Wait()
		for _, local := range partials {
			for j, v := range local {
				next[j] += v
			}
		}
	}
	// Appendix A: average the per-tree expectations over the d trees.
	inv := 1 / float64(e.d)
	for j := range next {
		next[j] *= inv
	}
	e.dist = next
}

// scratch holds per-worker enumeration buffers.
type scratch struct {
	parts  []uint64 // current partition being built
	combos []combo  // materialized combos of the current group
	sizes  []uint64 // flattened combo parts
}

// combo references a slice of sizes in scratch.sizes plus its log-weight.
type combo struct {
	off, n int
	logw   float64
}

// processGroup enumerates Ω(V,ξ) for one (degree, value) group and adds the
// posterior-weighted expected flow counts (times the group multiplicity)
// into acc.
func (e *engine) processGroup(g *group, logLam, acc []float64, sc *scratch) {
	weight := float64(g.count)
	logXi := math.Log(float64(g.degree))

	sc.combos = sc.combos[:0]
	sc.sizes = sc.sizes[:0]

	emit := func(parts []uint64) {
		// log-weight: Σ_j β_j·log(λ_j·ξ) − log(β_j!) with multiplicities
		// computed over the (non-increasing) parts.
		lw := 0.0
		run := 0
		for i, p := range parts {
			lw += logLam[p] + logXi
			if i > 0 && parts[i-1] == p {
				run++
			} else {
				run = 1
			}
			// Accumulates to −log(β!) per run; run lengths are tiny, so
			// a table lookup replaces math.Log on the hottest path.
			if run < len(e.logRun) {
				lw -= e.logRun[run]
			} else {
				lw -= math.Log(float64(run))
			}
		}
		off := len(sc.sizes)
		sc.sizes = append(sc.sizes, parts...)
		sc.combos = append(sc.combos, combo{off: off, n: len(parts), logw: lw})
	}

	if !e.enumerate(g, emit) {
		// Deterministic resolution for counters past the enumeration cap.
		e.resolveDeterministic(g, weight, acc)
		return
	}
	if len(sc.combos) == 0 {
		// No feasible combination (can only happen for inconsistent
		// inputs); fall back to the deterministic split.
		e.resolveDeterministic(g, weight, acc)
		return
	}

	// Normalize in log space.
	maxLog := math.Inf(-1)
	for _, c := range sc.combos {
		if c.logw > maxLog {
			maxLog = c.logw
		}
	}
	total := 0.0
	for i := range sc.combos {
		sc.combos[i].logw = math.Exp(sc.combos[i].logw - maxLog)
		total += sc.combos[i].logw
	}
	for _, c := range sc.combos {
		p := c.logw / total * weight
		for _, s := range sc.sizes[c.off : c.off+c.n] {
			acc[s] += p
		}
	}
}

// enumerate generates the truncated combination set for g, calling emit for
// each. It reports false when the group exceeds the enumeration caps and
// must be resolved deterministically.
func (e *engine) enumerate(g *group, emit func([]uint64)) bool {
	cap64 := uint64(e.cfg.EnumCap)
	if g.degree <= 1 {
		if g.value > cap64 {
			return false
		}
		// Partitions of value into 1..1+ExtraParts parts.
		forEachPartition(g.value, 1+e.cfg.ExtraParts, 1, emit)
		return true
	}
	// Degree ξ ≥ 2: every flow ≥ θ1+1; enumerate partitions of the
	// remainder into ≤ ξ parts, then offset every slot by θ1+1.
	minFlow := e.cfg.Theta1 + 1
	need := uint64(g.degree) * minFlow
	if g.value < need {
		return false // inconsistent with the overflow constraint
	}
	r := g.value - need
	if r > cap64 || g.degree > 6 {
		return false
	}
	// Combinatorial budget: the partition count grows like
	// r^(ξ−1)/(ξ−1)!, which explodes for wide trees with small leaf
	// capacities. Resolve oversize sets deterministically (§4.3's
	// truncation by value AND degree).
	combos := 1.0
	for i := 1; i < g.degree; i++ {
		combos *= float64(r) / float64(i)
	}
	if combos > 2e5 {
		return false
	}
	buf := make([]uint64, g.degree)
	forEachPartitionAtMost(r, g.degree, func(parts []uint64) {
		for i := range buf {
			if i < len(parts) {
				buf[i] = parts[i] + minFlow
			} else {
				buf[i] = minFlow
			}
		}
		emit(buf)
	})
	return true
}

// resolveDeterministic applies the large-counter heuristic: the value is
// attributed to one dominant flow plus, for degree ξ ≥ 2, ξ−1 minimal
// overflowing flows.
func (e *engine) resolveDeterministic(g *group, weight float64, acc []float64) {
	minFlow := e.cfg.Theta1 + 1
	extra := uint64(g.degree-1) * minFlow
	if g.degree <= 1 || g.value <= extra {
		acc[g.value] += weight
		return
	}
	acc[g.value-extra] += weight
	acc[minFlow] += weight * float64(g.degree-1)
}

// forEachPartition enumerates the partitions of v into between 1 and
// maxParts parts, each ≥ minPart, in non-increasing order.
func forEachPartition(v uint64, maxParts int, minPart uint64, fn func([]uint64)) {
	var parts []uint64
	var rec func(rem, prev uint64)
	rec = func(rem, prev uint64) {
		if rem == 0 {
			fn(parts)
			return
		}
		if len(parts) >= maxParts {
			return
		}
		hi := rem
		if prev < hi {
			hi = prev
		}
		// The remaining slots must be able to absorb rem: with at most
		// (maxParts-len-1) further parts of ≤ p each, p ≥ rem/(slots).
		slots := uint64(maxParts - len(parts))
		lo := (rem + slots - 1) / slots
		if lo < minPart {
			lo = minPart
		}
		for p := hi; p >= lo; p-- {
			parts = append(parts, p)
			rec(rem-p, p)
			parts = parts[:len(parts)-1]
			if p == 0 {
				break
			}
		}
	}
	rec(v, v)
}

// forEachPartitionAtMost enumerates partitions of v into at most maxParts
// parts (possibly zero parts when v == 0), non-increasing.
func forEachPartitionAtMost(v uint64, maxParts int, fn func([]uint64)) {
	if v == 0 {
		fn(nil)
		return
	}
	forEachPartition(v, maxParts, 1, fn)
}

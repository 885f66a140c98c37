// Package exp is the experiment harness: one runner per table and figure
// of the FCM paper's evaluation (§7 software, §8 hardware). Each runner
// regenerates the same rows/series the paper reports, printed next to the
// paper's own numbers where the paper states them.
//
// Workloads follow §7.2: CAIDA-like traces of ~20M packets and ~0.5M
// source-IP flows against 1.5MB sketches. Because that takes minutes per
// figure, the harness scales the trace and the memory together by
// Options.Scale (default 0.1); the error *ratios* between schemes — the
// shape of every figure — are preserved under this joint scaling, and
// Scale=1 reproduces the paper-scale run.
package exp

import (
	"fmt"
	"io"
	"math"

	"github.com/fcmsketch/fcm/internal/em"
	"github.com/fcmsketch/fcm/internal/exact"
	"github.com/fcmsketch/fcm/internal/metrics"
	"github.com/fcmsketch/fcm/internal/sketch"
	"github.com/fcmsketch/fcm/internal/trace"
)

// Options configures a harness run.
type Options struct {
	// Scale multiplies the paper's trace size and memory (default 0.1).
	Scale float64
	// Seed drives trace generation and hashing.
	Seed int64
	// EMIterations bounds the EM rounds (default 5, where the paper
	// observes convergence).
	EMIterations int
	// Workers is the EM parallelism (0 = all cores).
	Workers int
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// EMMetrics, when non-nil, instruments every EM run the experiments
	// perform (iteration counts and latency on fcmbench's -debug-addr).
	EMMetrics *em.Metrics
}

// withDefaults normalizes the options.
func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 0.1
	}
	if o.Seed == 0 {
		o.Seed = 31337
	}
	if o.EMIterations <= 0 {
		o.EMIterations = 5
	}
	return o
}

// Paper-scale constants (§7.2).
const (
	paperPackets     = 20_000_000
	paperMemoryBytes = 1_500_000
	paperHHFraction  = 0.0005 // 10K packets of 20M
	paperTopKEntries = 4096
)

// Packets returns the scaled trace size.
func (o Options) Packets() int { return int(paperPackets * o.Scale) }

// MemoryBytes returns the scaled default memory (the paper's 1.5MB).
func (o Options) MemoryBytes() int { return int(paperMemoryBytes * o.Scale) }

// HHThreshold returns the scaled heavy-hitter threshold (0.05% of trace).
func (o Options) HHThreshold() uint64 {
	return uint64(math.Round(float64(o.Packets()) * paperHHFraction))
}

// TopKEntries returns the FCM+TopK filter size. The paper's 4096 entries
// are NOT scaled down with the trace: the number of heavy hitters above a
// fixed trace fraction grows only logarithmically with trace size, so a
// proportionally shrunk filter would be overloaded in a way the paper's
// never is. The entry count is clamped so the filter claims at most ~1/8
// of the memory budget mem.
func (o Options) TopKEntries(mem int) int {
	n := paperTopKEntries
	if cap := mem / (8 * 13); n > cap {
		n = cap
	}
	if n < 16 {
		n = 16
	}
	return n
}

// logf writes a progress line.
func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// caidaTrace generates the scaled CAIDA-like workload.
func (o Options) caidaTrace() (*trace.Trace, error) {
	return trace.CAIDALike(o.Packets(), o.Seed)
}

// ---------------------------------------------------------------------------
// Evaluation helpers shared by the runners.
// ---------------------------------------------------------------------------

// ingest streams every packet of tr into each structure, in arrival order.
func ingest(tr *trace.Trace, updaters ...sketch.Updater) {
	tr.ForEachPacket(func(_ int, key []byte) {
		for _, u := range updaters {
			u.Update(key, 1)
		}
	})
}

// flowErrors queries every flow and returns (ARE, AAE) against the truth.
func flowErrors(tr *trace.Trace, est sketch.Estimator) (are, aae float64) {
	truth := make([]float64, tr.NumFlows())
	got := make([]float64, tr.NumFlows())
	for i, k := range tr.Keys {
		truth[i] = float64(tr.Sizes[i])
		got[i] = float64(est.Estimate(k.Bytes()))
	}
	return metrics.ARE(truth, got), metrics.AAE(truth, got)
}

// trueHH returns the ground-truth heavy-hitter set keyed by raw key bytes.
func trueHH(tr *trace.Trace, threshold uint64) map[string]uint64 {
	hh := make(map[string]uint64)
	for i, k := range tr.Keys {
		if uint64(tr.Sizes[i]) >= threshold {
			hh[string(k.Bytes())] = uint64(tr.Sizes[i])
		}
	}
	return hh
}

// hhF1ByQuery scores candidate-query heavy-hitter detection: every flow key
// is queried and reported when the estimate crosses the threshold (how CM,
// FCM and PCM detect heavy hitters).
func hhF1ByQuery(tr *trace.Trace, est sketch.Estimator, threshold uint64) float64 {
	truth := trueHH(tr, threshold)
	reported := make(map[string]uint64)
	for _, k := range tr.Keys {
		if v := est.Estimate(k.Bytes()); v >= threshold {
			reported[string(k.Bytes())] = v
		}
	}
	return metrics.F1Sets(truth, reported)
}

// hhF1BySet scores set-reporting detectors (TopK variants, HashPipe).
func hhF1BySet(tr *trace.Trace, reported map[string]uint64, threshold uint64) float64 {
	return metrics.F1Sets(trueHH(tr, threshold), reported)
}

// trueDistribution computes the exact flow-size distribution of the trace.
func trueDistribution(tr *trace.Trace) []float64 {
	dist := make([]float64, tr.MaxSize()+1)
	for _, s := range tr.Sizes {
		dist[s]++
	}
	return dist
}

// trueEntropy computes the exact flow entropy.
func trueEntropy(tr *trace.Trace) float64 {
	t := exact.New()
	for i, k := range tr.Keys {
		t.UpdateKey(k, uint64(tr.Sizes[i]))
	}
	return t.Entropy()
}

// cardRE returns the relative error of a cardinality estimate.
func cardRE(tr *trace.Trace, est float64) float64 {
	return metrics.RE(float64(tr.NumFlows()), est)
}

// keyBytesOf converts trace keys into a candidate list.
func keyBytesOf(tr *trace.Trace) [][]byte {
	out := make([][]byte, tr.NumFlows())
	for i := range tr.Keys {
		out[i] = tr.Keys[i].Bytes()
	}
	return out
}

// Command perfbench is the repository's packet→answer benchmark. One run
// measures one workload against the public APIs of the FCM stack — hashing,
// core, engine, the root fcm package, window, collect, em and insight — and
// prints its metrics, checking every measured answer against a serial
// re-ingest reference.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ingest|query|collect --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 it carries the per-layer ledger, derived
// from spans recorded around each timed public call. The lines before it
// are the run's environment stamp and a report with every metric of the
// workload, its unit and its sample count. perfbench/README.md defines each
// metric and which per-layer figure should move which end-to-end one.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	fcm "github.com/fcmsketch/fcm"
)

// sizes fixes the load. The trace length is a multiple of every window
// size, so window w of a workload is always the same slice of the trace and
// its serial reference can be rebuilt from the window index alone.
type sizes struct {
	tracePackets    int // packets in the seeded trace, replayed cyclically
	ingestWindow    int // packets per window in ingest
	ingestRetention int // ring MaxWindows in ingest
	queryWindow     int // packets per window in query
	queryRetention  int // ring MaxWindows in query, pre-filled in set-up
	group           int // consecutive windows (collect: rounds) per rate and freshness sample
	collectWindow   int // packets per switch per round in collect
	collectKeep     int // collector ring MaxWindows
	setupReps       int // set-ups per run in ingest and collect; setup_s is their median
	querySetupReps  int // set-ups per run in query, whose pre-fill takes a second
	ladderPackets   int // packets per ladder pass
	ladderReps      int // passes per ladder rung
	isoReps         int // samples per isolated call
	ledgerRounds    int // collect rounds of the ledger's own session
	minSamples      int // windows a timed phase records before it may stop
	minGroups       int // groups a timed phase records before it may stop
}

// defaultSizes is the paper-default geometry's load; see README.md for why
// each size was chosen.
var defaultSizes = sizes{
	tracePackets:    1 << 21,
	ingestWindow:    1 << 18,
	ingestRetention: 16,
	queryWindow:     1 << 15,
	queryRetention:  128,
	group:           8,
	collectWindow:   1 << 18,
	collectKeep:     16,
	setupReps:       15,
	querySetupReps:  7,
	ladderPackets:   1 << 18,
	ladderReps:      7,
	isoReps:         9,
	ledgerRounds:    12,
	minSamples:      110,
	minGroups:       20,
}

// geometry is the paper default: K = 8, two trees, {8,16,32}-bit stages,
// 1 MiB of counters per sketch or shard.
var geometry = fcm.Config{MemoryBytes: 1 << 20}

// options is one run's command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	out      string // directory for span dumps; "" keeps nothing
	sz       sizes
	// corruptRef drops one packet from every serial reference, so the
	// answer checks must count failures; only the benchmark's test sets it.
	corruptRef bool
}

// metric is one named figure of a run.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"samples,omitempty"`
}

// outcome is what a workload run returns to main.
type outcome struct {
	attempted, failed int
	checked           map[string]string // answer class → share checked
	report            []metric          // every metric the workload defines
	e2e               map[string]metric // BENCHMARK.json end_to_end
	layers            map[string]metric // BENCHMARK.json per_layer
	spans             *tracer
}

// endToEnd and perLayer are the metric names BENCHMARK.json lists, in its
// order; a run prints exactly these in its last line.
var endToEnd = []string{"setup_s", "ingest_mpps", "fresh_p50_ms", "retained_mb"}

var perLayer = []string{
	"hashing.pair_ns", "core.update_batch_ns", "engine.shard_batch_ns", "engine.batcher_ns",
	"fcm.sharded_batch_ns", "window.update_batch_ns", "ladder.parallel_ring_ns",
	"ladder.composed_ns", "ladder.unexplained_frac",
	"ladder.batcher_gap_ns", "ladder.sharded_gap_ns",
	"window.rotate_ms", "engine.rotate_ms", "fcm.resident_mb",
	"window.fold_ms_per_bucket", "window.covering_buckets", "window.coarsen_merges_per_rotate",
	"window.resident_mb", "core.merge_ms", "core.clone_ms", "core.estimate_ns",
	"core.cardinality_ms", "core.virtual_counters_ms", "em.run_ms", "em.iterations",
	"engine.snapshot_ms", "insight.observe_ms",
	"collect.read_ms", "collect.reset_ms", "collect.take_snapshot_ms", "collect.diff_ms",
	"collect.encode_ms", "collect.state_crc_ms", "collect.decode_ms", "collect.apply_ms",
	"collect.restore_ms", "collect.net_ms", "window.file_window_ms", "collect.delta_frac",
	"collect.delta_kb", "collect.full_kb", "collect.fallbacks", "collect.retries",
	"trace.untraced_ingest_mpps", "trace.traced_ingest_mpps",
	"trace.untraced_fresh_p50_ms", "trace.traced_fresh_p50_ms",
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "ingest, query or collect")
	flag.Int64Var(&o.seed, "seed", 1, "trace seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 records spans and prints the per-layer ledger")
	flag.StringVar(&o.out, "out", "", "directory for the span dump of a traced run")
	flag.Parse()
	o.traced = traceFlag == 1
	o.sz = defaultSizes
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and prints the stamp, the report and the
// result line to w.
func run(o options, w io.Writer) error {
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	res, err := execute(o, nproc)
	if err != nil {
		return err
	}
	for _, m := range res.report {
		if math.IsNaN(m.Value) {
			return fmt.Errorf("metric %s has no samples", m.Name)
		}
	}
	stamp := environment(o, nproc)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": stamp}); err != nil {
		return err
	}
	if err := enc.Encode(map[string]any{"report": res.report, "checked": res.checked,
		"op_fail_frac": failFrac(res)}); err != nil {
		return err
	}
	if o.traced && o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := res.spans.dump(path); err != nil {
			return err
		}
	}
	return enc.Encode(resultLine(o, res))
}

// execute dispatches to the workload.
func execute(o options, nproc int) (*outcome, error) {
	switch o.workload {
	case "ingest":
		return runIngest(o, nproc)
	case "query":
		return runQuery(o, nproc)
	case "collect":
		return runCollect(o, nproc)
	}
	return nil, fmt.Errorf("unknown --workload %q (want ingest, query or collect)", o.workload)
}

func failFrac(res *outcome) float64 {
	if res.attempted == 0 {
		return 1
	}
	return float64(res.failed) / float64(res.attempted)
}

// result is the last stdout line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]valuedUnit `json:"metrics"`
}

type valuedUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(o options, res *outcome) result {
	names, src := endToEnd, res.e2e
	if o.traced {
		names, src = perLayer, res.layers
	}
	r := result{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]valuedUnit, len(names))}
	for _, n := range names {
		m := src[n]
		r.Metrics[n] = valuedUnit{Value: m.Value, Unit: m.Unit}
	}
	return r
}

// environment stamps a run so figures from different boxes are never
// compared blind.
func environment(o options, nproc int) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.traced,
		"nproc":      nproc,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"geometry":   "K=8 trees=2 widths=8,16,32 memory=1MiB per sketch or shard",
		"commit":     commit(),
	}
}

// cpuModel reads the processor name on Linux and returns "unknown"
// elsewhere.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source the benchmark was built from: the VCS revision
// when the build recorded one, else a digest of the Go sources it measured
// (a checkout without git metadata still gets a stable identity).
func commit() string {
	if rev := buildRevision(); rev != "" {
		return rev
	}
	return "src-" + sourceDigest(".")
}

// since is time.Since in milliseconds.
func since(t time.Time) float64 { return ms(time.Since(t)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

#!/bin/sh
# ci.sh — the repository's one-command gate: static checks, then the full
# test suite under the race detector (the sharded engine and the collect
# server are exercised by multi-writer tests, so -race is the contract).
set -eux

# listed PATTERN PKG... fails unless PATTERN names at least one test,
# benchmark or fuzz target in every PKG. `go test -run X` exits 0 with
# "no tests to run" when X matches nothing, so without this a renamed or
# deleted test would drop out of its gate without a sound.
listed() {
  pattern=$1
  shift
  for pkg in "$@"; do
    if ! go test -list "$pattern" "$pkg" | grep -qv '^ok '; then
      echo "ci.sh: '$pattern' matches nothing in $pkg" >&2
      exit 1
    fi
  done
}

# gate PATTERN 'PKG...' [FLAG...] runs the tests PATTERN selects in every
# PKG, after listed has checked that it selects some in each.
gate() {
  pattern=$1 pkgs=$2
  shift 2
  listed "$pattern" $pkgs
  go test "$@" -run "$pattern" $pkgs
}

# smoke PATTERN PKG... runs one iteration of the benchmarks PATTERN selects
# — not a perf measurement, a gate that they still compile and run.
smoke() {
  pattern=$1
  shift
  listed "$pattern" "$@"
  go test -run NOMATCH -bench "$pattern" -benchtime 1x "$@"
}

# fuzz TARGET PKG runs a ten-second smoke of one native fuzz target.
fuzz() {
  listed "^$1\$" "$2"
  go test -run NOMATCH -fuzz "^$1\$" -fuzztime 10s "$2"
}

go vet ./...
# Format gate: gofmt prints every file whose formatting differs.
test -z "$(gofmt -l .)"
go build ./...

# Link gate: the differential oracles and their uint32 register view
# (internal/difftest) are test-only. No production package — the root
# package, the commands, the examples or any other internal package — may
# link them.
mod=$(go list -m)
prod=$(go list . ./cmd/... ./examples/... ./internal/... | grep -vx "$mod/internal/difftest")
if go list -deps $prod | grep -qx "$mod/internal/difftest"; then
  echo "ci.sh: a production package links $mod/internal/difftest" >&2
  exit 1
fi

# Import-direction gate: the root package is the public façade over the
# internal layers, so no internal package may import it back. Only the
# experiment harness (internal/exp) and the differential oracles
# (internal/difftest) drive the public API from below.
layers=$(go list ./internal/... | grep -vx -e "$mod/internal/exp" -e "$mod/internal/difftest")
up=$(go list -f '{{.ImportPath}}{{range .Deps}} {{.}}{{end}}' $layers |
  awk -v m="$mod" '{ for (i = 2; i <= NF; i++) if ($i == m) print $1 }')
if [ -n "$up" ]; then
  echo "ci.sh: internal packages import the root package $mod:" $up >&2
  exit 1
fi

# Docs gate: the docs may not cite what does not exist. Every BENCH_*.json
# named in README.md, DESIGN.md, EXPERIMENTS.md, this file, the verify
# skill or a Go comment must be checked in, and every `fcmbench -run`
# there may name only experiments that `fcmbench -list` prints (or
# `all`). CHANGES.md and ROADMAP.md are history and exempt.
cited() {
  {
    grep -rhoE "$1" README.md DESIGN.md EXPERIMENTS.md ci.sh .claude/skills/
    grep -rhE --include='*.go' '//' . | grep -oE "$1"
  } | sort -u || true
}
for f in $(cited 'BENCH_[A-Za-z0-9_]+\.json'); do
  if [ ! -f "$f" ]; then
    echo "ci.sh: $f is cited but missing" >&2
    exit 1
  fi
done
ids=" $(go run ./cmd/fcmbench -list | awk 'NR > 1 { print $1 }' | tr '\n' ' ') all "
for id in $(cited 'fcmbench -run [A-Za-z0-9_,]+' | sed 's/.* -run //' | tr ',' ' '); do
  case "$ids" in
  *" $id "*) ;;
  *)
    echo "ci.sh: 'fcmbench -run $id' names no experiment" >&2
    exit 1
    ;;
  esac
done

go test -race ./...

# Chaos gate: the fault-injection suite under -race, run explicitly (and
# without test caching) so collection-plane robustness cannot silently
# rot. Fault schedules are drawn from fixed seeds baked into the tests
# (chaosSeed=42 and per-test constants), so failures reproduce exactly.
gate 'Chaos|Blackhole|AcceptLoop|MaxConns|Idle|Skipped|Retries|StalledPeer|Stop' \
  './internal/collect/ ./internal/faultnet/' -race -count=1

# Hot-path gate, part 1: the zero-allocation contract of the batched
# ingest path, uncached so it cannot rot behind the test cache. These
# tests pin AllocsPerRun == 0 on core.UpdateBatch, the engine batcher and
# first-free-shard UpdateBatch, Ring.UpdateBatch and the ring's coarsening
# scan, trace replay (batched and unbatched) and the streaming pcap replay,
# and cap a warm ring's Rotate plus freshness fold below 64 KiB per window
# (no register memory: dead shards and buckets are recycled).
gate 'Allocs' './internal/engine/ ./internal/trace/ ./internal/window/' -count=1
# The build counter's contract, uncached: a warm ring rotated every window
# builds no sketch — with a per-window SnapshotOverTime caller and with a
# reader pinning buckets across coarsening — a bucket retired while
# pinned keeps its registers and is handed back exactly once by its last
# unpin, and a steady poller of an engine-sourced server builds none.
gate 'TestSteadyRotationBuildsNothing|TestPinnedBucketRecycledOnce|TestEngineServerReadsBuildNothing' \
  './internal/window/ ./internal/collect/' -count=1

# Batch-placement race gate: first-free-shard UpdateBatch writers (batch
# sizes 1..1000) racing key-affinity writers and snapshots must still merge
# to the serial registers, and one writer's batches must reach every shard.
# Repeated under -race so rare interleavings of TryLock get a chance.
gate 'TestShardedConcurrentWritersAndSnapshots|TestUpdateBatchRoundRobinSpread' \
  '. ./internal/engine/' -race -count=10

# Rotation-authority race gate: the engine alone decides which window an
# update lands in and counts its packets there. Writers racing Rotate on a
# ring must leave filed + live packets equal to the packets sent, and the
# lock-free Framework.Update must still put each update in exactly one
# window. Readers pin the buckets they fold: every fold kind and frame
# export, racing writers, Rotate, coarsening and retention, must equal a
# serial re-ingest of the windows it covers while dead sketches are
# recycled. Repeated under -race so rare rotate interleavings get a chance.
gate 'TestWindowPacketsConservedUnderRotate|TestFrameworkRotateUnderConcurrentUpdate|TestWindowPinsUnderRecycling' \
  '. ./internal/window/' -race -count=10

# Benchmark compile gate: perfbench is a nested module, so the root
# `go build ./...` skips it; vet and test it here so an API change that
# breaks the benchmark fails this gate instead of the benchmark run.
(cd perfbench && go vet ./... && go test -count=1 ./...)

# Hot-path gate, part 2: bench smoke. One iteration of every ingest
# benchmark (CI boxes are too noisy for numbers; perfbench's ingest
# workload is the ledger), so the benchmarks keep compiling and running,
# and of the self-telemetry overhead pair BENCH_telemetry.json reports.
smoke 'IngestFCM|UpdateBatchFCM|ReplayTraceFCM' .
smoke 'InstrumentedUpdate' .

# Fold-path gate, part 1: the word-wide (SWAR) merge plane must stay
# bit-identical to the scalar reference walk (difftest.MergeScalar) — the
# merge/diff suites (geometry sweep, equality prescreen) run under -race
# and uncached, alongside the difftest SWAR-vs-scalar invariant via the
# battery below. The rotation's split merge is held to the same walk with
# every sketch cut into 1, 2, 3 and 7 root ranges (its ranges share one
# carry pair, so -race is the contract), and its split clear to Reset.
gate 'MergeMatchesScalar|FirstRegisterDiffPrescreen|Merge' ./internal/core/ -race -count=1
gate 'TestSplitMergeMatchesScalar|TestResetSplitClears' ./internal/core/ -race -count=1
# The word-wide snapshot diff likewise against its scalar per-register
# oracle (difftest.DiffScalar): every sweep geometry, including stages
# whose byte length is not a multiple of 8, at dirty densities from none
# to all, with ApplyDelta reproducing the diffed state and its state CRC.
gate 'TestDiffMatchesScalar' ./internal/difftest/ -race -count=1
# The collection read's cores and copies: the diff cut into ranges at 1, 2,
# 3 and 7 parts per stage against the same oracle, the client's in-place
# delta apply through a bad block and a bad state CRC, and the server's
# recycled session snapshots under two racing connections on one session.
# Repeated under -race so rare interleavings of the shared session get a
# chance.
gate 'TestSplitDiffMatchesScalar|TestDeltaApplyInPlaceFailures|TestDeltaSessionRecycling' \
  ./internal/collect/ -race -count=10
# Fold-path gate, part 2: the zero-allocation contracts of the fold plane,
# uncached — Merge's carry scratch, the append-style frame encoders, and
# the per-poll snapshot read-out into a reused snapshot.
gate 'TestMergeAllocs|TestDeltaAppendEncodeMatchesEncode|TestTakeSnapshotIntoAllocs' \
  './internal/core/ ./internal/collect/' -count=1
# Fold-path gate, part 3: bench smoke — one iteration of the fold
# benchmarks, the word-wide merge, equality, fleet-fold and diff paths,
# plus the paper-geometry merge, cardinality and register-census kernels
# beside the plain word-add ceiling they are reported against, and the
# paper-geometry ring rotation (split clears, shard swap, split merge,
# in-place coarsening, recycling).
smoke 'MergePair|EqualRegisters|MergePaper|CardinalityPaper|CensusPaper|WordAddCeiling' ./internal/core/
smoke 'RingRotate' ./internal/window/
smoke 'AbsorbFleet|DiffSnapshots|StateCRC' ./internal/collect/

# Lane-layout gate: the compact typed counter slabs (uint8/uint16/uint32
# lanes), under -race and uncached. Covers the in-package lane suite
# (boundaries at 254/65534, exact resident-byte arithmetic, clone layout),
# the lane range checks of difftest's uint32 register view, and the
# resident-bytes telemetry gauges.
gate 'TypedLanes|LaneRange|SaturationBoundaries|SharesLayout|ResidentBytes' \
  './internal/core/ ./internal/engine/ ./internal/difftest/' -race -count=1

# Fleet gate: the 200+-switch two-level aggregation test under -race and
# uncached — delta sessions end to end through faultnet faults, an
# aggregator outage with member re-homing, heal, injected generation
# loss, and bit-identity against a flat merge throughout. Also pins the
# FCMD delta-frame golden vectors and the delta protocol suite alongside it.
gate 'Fleet|Delta|Aggregator|Scheduler|Gate' ./internal/collect/ -race -count=1
# The steady-state delta test waits for the server's post-write read
# counter before its exact assertions; repeat it so a regression of that
# wait (a flake a few runs in a hundred) cannot hide.
gate 'TestDeltaProtocolSteadyState' ./internal/collect/ -race -count=200

# Differential gate: the oracle-backed equivalence and metamorphic suite
# (internal/difftest) under -race and uncached. This is the proof that all
# four ingest paths — serial, batched, sharded, PISA — stay bit-identical
# and one-sided against the exact oracle; every trial derives from a
# printed seed, so any failure reproduces with -seed.
go test -race -count=1 ./internal/difftest/

# Fuzz gate, part 1: the checked-in seed corpora must exist, be non-empty
# and match the in-code seed definitions (TestSeedCorpora enforces
# staleness; the explicit file check below catches an accidentally pruned
# checkout before go test would silently fuzz from nothing).
for target in FuzzSketchOps FuzzPcapIngest FuzzEMInput FuzzWindowOps; do
  dir="internal/difftest/testdata/fuzz/$target"
  [ -d "$dir" ]
  [ -n "$(ls -A "$dir")" ]
done
dir="internal/collect/testdata/fuzz/FuzzDeltaFrame"
[ -d "$dir" ]
[ -n "$(ls -A "$dir")" ]
gate 'TestSeedCorpora' ./internal/difftest/ -count=1
gate 'TestWindowSeedCorpus' ./internal/difftest/ -count=1
gate 'TestDeltaSeedCorpus' ./internal/collect/ -count=1

# Fuzz gate, part 2: short smoke runs of every native fuzz target — the
# state-machine fuzzer over the ingest ops, the pcap differential fuzzer
# and the EM input fuzzer — plus the collect codec fuzzers that predate
# them (delta frames, bare snapshots, length-prefixed wire frames). Ten
# seconds each is not a soak; it gates that the targets still build, the
# corpora still replay, and nothing shallow regressed.
fuzz FuzzSketchOps ./internal/difftest/
fuzz FuzzPcapIngest ./internal/difftest/
fuzz FuzzEMInput ./internal/difftest/
fuzz FuzzDeltaFrame ./internal/collect/
fuzz FuzzDecodeSnapshot ./internal/collect/
fuzz FuzzWireFrame ./internal/collect/
fuzz FuzzWindowOps ./internal/difftest/

# Window gate, part 1: the windowed differential battery under -race and
# uncached — every over-time query must equal the same query against a
# serial ingest of the concatenated covering windows, bit-exact, including
# with rotations racing live writers; plus the in-package ring suite
# (exact window packets/retention/lookback/handler/telemetry) and the
# windowed snapshot codec golden vectors with their every-bit-flip
# rejection sweep.
gate 'Window' './internal/difftest/ ./internal/window/ ./internal/collect/' -race -count=1

# Window gate, part 2: the over-time query-throughput floor at the full
# 64-bucket lookback (TestOverTimeQueryFloor requires >= 100 queries/s on
# the test geometry; perfbench's query workload measures fold latency
# across lookbacks), and a bench smoke so the benchmarks keep running.
gate 'TestOverTimeQueryFloor' ./internal/window/ -count=1
smoke 'QueryOverTime|Rotate' ./internal/window/

# Telemetry gate, part 1: the telemetry-plane suites race-enabled and
# uncached — registry/export correctness and exposition linting, the
# flight recorder (internal/telemetry/tracing), the accuracy self-report
# (internal/insight), engine instrumentation, and the poller health-cycle
# test that drives healthy->degraded->down->healthy through faultnet and
# asserts transition counters and log records. The fleet tracing test
# (full poll trace: gate wait -> client attempt -> decode -> delta apply
# -> absorb -> deliver) rides the Trac pattern.
go test -race -count=1 ./internal/telemetry/... ./internal/insight/
gate 'Telemetry|Instrument|Trac|Insight' './internal/engine/ ./internal/collect/' -race -count=1

# Telemetry gate, part 2: end-to-end smoke. Boot a switch with live
# endpoints, scrape /metrics through fcmctl, and require the key series
# of every subsystem to be present in the exposition; then collect the
# registers through fcmctl and require the read to show in the metrics.
TMP=$(mktemp -d)
SWITCH_PID=
cleanup() {
  [ -n "$SWITCH_PID" ] && kill "$SWITCH_PID" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT
go build -o "$TMP/fcmswitch" ./cmd/fcmswitch
go build -o "$TMP/fcmctl" ./cmd/fcmctl
"$TMP/fcmswitch" -packets 50000 -shards 2 -listen 127.0.0.1:0 \
  -telemetry-addr 127.0.0.1:0 >"$TMP/switch.out" 2>"$TMP/switch.err" &
SWITCH_PID=$!
ADDR=
for _ in $(seq 1 50); do
  ADDR=$(sed -n 's/^telemetry on //p' "$TMP/switch.out")
  if [ -n "$ADDR" ]; then break; fi
  sleep 0.2
done
[ -n "$ADDR" ]
"$TMP/fcmctl" -metrics "$ADDR" >"$TMP/scrape.out"
for series in fcm_build_info fcm_sketch_updates_total \
    fcm_sketch_level_occupancy fcm_engine_shard_updates_total \
    fcm_engine_shards fcm_collect_server_conns_total \
    fcm_tracing_enabled fcm_traces_retained \
    fcm_insight_error_bound_packets fcm_insight_saturation_forecast_windows \
    go_goroutines process_uptime_seconds; do
  grep -q "^$series" "$TMP/scrape.out"
done

# Boot-scrape the observability endpoints: fcmctl fetches /debug/traces
# and /debug/insight and unmarshals each response, so this fails on
# anything but well-formed JSON; the greps pin the rendered reports.
"$TMP/fcmctl" -traces "$ADDR" >"$TMP/traces.out"
grep -q '^traces: ' "$TMP/traces.out"
"$TMP/fcmctl" -insight "$ADDR" >"$TMP/insight.out"
grep -q '^insight @ window' "$TMP/insight.out"
grep -q 'error:' "$TMP/insight.out"

# Collect over the wire once the replay is in: fcmctl's one-shot read
# speaks the delta read protocol (the only read protocol), and the switch
# must count it as a served delta read.
COLLECT_ADDR=$(sed -n 's/^serving registers on //p' "$TMP/switch.out")
[ -n "$COLLECT_ADDR" ]
for _ in $(seq 1 150); do
  if grep -q '^replay complete' "$TMP/switch.out"; then break; fi
  sleep 0.2
done
grep -q '^replay complete' "$TMP/switch.out"
"$TMP/fcmctl" -connect "$COLLECT_ADDR" -iters 1 >"$TMP/collect.out"
grep -q '^collected ' "$TMP/collect.out"
"$TMP/fcmctl" -metrics "$ADDR" >"$TMP/scrape2.out"
grep -Eq '^fcm_collect_server_delta_reads_total [1-9]' "$TMP/scrape2.out"
kill "$SWITCH_PID"
SWITCH_PID=

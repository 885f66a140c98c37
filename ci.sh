#!/bin/sh
# ci.sh — the repository's one-command gate: static checks, then the full
# test suite under the race detector (the sharded engine and the collect
# server are exercised by multi-writer tests, so -race is the contract).
set -eux

go vet ./...
go build ./...
go test -race ./...

# Chaos gate: the fault-injection suite under -race, run explicitly (and
# without test caching) so collection-plane robustness cannot silently
# rot. Fault schedules are drawn from fixed seeds baked into the tests
# (chaosSeed=42 and per-test constants), so failures reproduce exactly.
go test -race -count=1 \
  -run 'Chaos|Blackhole|AcceptLoop|MaxConns|Idle|Skipped|Retries|StalledPeer|Stop' \
  ./internal/collect/ ./internal/faultnet/

# Hot-path gate, part 1: the zero-allocation contract of the batched
# ingest path, uncached so it cannot rot behind the test cache. These
# tests pin AllocsPerRun == 0 on core.UpdateBatch, the engine batcher and
# first-free-shard UpdateBatch, Ring.UpdateBatch and the ring's coarsening
# scan, trace replay (batched and unbatched) and the streaming pcap replay.
go test -count=1 -run 'Allocs' \
  ./internal/engine/ ./internal/trace/ ./internal/window/

# Batch-placement race gate: first-free-shard UpdateBatch writers (batch
# sizes 1..1000) racing key-affinity writers and snapshots must still merge
# to the serial registers, and one writer's batches must reach every shard.
# Repeated under -race so rare interleavings of TryLock get a chance.
go test -race -count=10 \
  -run 'TestShardedConcurrentWritersAndSnapshots|TestUpdateBatchRoundRobinSpread' \
  . ./internal/engine/

# Hot-path gate, part 2: bench smoke. One iteration of every ingest
# benchmark — not a perf measurement (CI boxes are noisy), just a gate
# that the benchmarks still compile and run, so the numbers recorded in
# BENCH_hotpath.json and BENCH_compact.json stay regenerable.
go test -run 'NOMATCH' -bench 'IngestFCM|UpdateBatchFCM|ReplayTraceFCM' \
  -benchtime 1x .

# Fold-path gate, part 1: the word-wide (SWAR) merge plane must stay
# bit-identical to the exported scalar reference walk — the merge/diff
# suites (geometry sweep, cross-layout seam, equality prescreen) run under
# -race and uncached, alongside the difftest SWAR-vs-scalar invariant via
# the battery below.
go test -race -count=1 \
  -run 'MergeMatchesScalar|FirstRegisterDiffPrescreen|Merge' \
  ./internal/core/
# Fold-path gate, part 2: the zero-allocation contracts of the fold plane,
# uncached — Merge's carry scratch, the serve path's snapshot+encode
# scratch, and the append-style frame encoders.
go test -count=1 -run 'TestMergeAllocs|TestServeEncodeAllocs|TestDeltaAppendEncodeMatchesEncode' \
  ./internal/core/ ./internal/collect/
# Fold-path gate, part 3: bench smoke — one iteration of the fold
# benchmarks so the numbers in BENCH_foldpath.json stay regenerable.
go test -run 'NOMATCH' -bench 'MergePair|EqualRegisters' -benchtime 1x ./internal/core/
go test -run 'NOMATCH' -bench 'AbsorbFleet|DiffSnapshots|StateCRC' -benchtime 1x ./internal/collect/

# Lane-layout gate: the compact typed counter slabs (uint8/uint16/uint32
# lanes) must stay register-exact against the 32-bit widening shim on every
# path, under -race and uncached. Covers the in-package lane suite
# (boundaries at 254/65534, resident-byte arithmetic, cross-layout merge and
# clone), the difftest wide-shim invariant, the layout-independent codec
# golden vector, and the resident-bytes telemetry gauges.
go test -race -count=1 \
  -run 'WideShim|CompactEqualsWide|TypedLanes|LaneRange|SaturationBoundaries|AcrossLayouts|SharesLayout|LayoutIndependent|ResidentBytes' \
  ./internal/core/ ./internal/collect/ ./internal/engine/

# Fleet gate: the 200+-switch two-level aggregation test under -race and
# uncached — delta sessions end to end through faultnet faults, an
# aggregator outage with member re-homing, heal, injected generation
# loss, and bit-identity against a flat merge throughout. Also pins the
# codec v3 golden vectors and the delta protocol suite alongside it.
go test -race -count=1 \
  -run 'Fleet|Delta|Aggregator|Scheduler|Gate' \
  ./internal/collect/

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
go test -count=1 -run 'TestSeedCorpora' ./internal/difftest/
go test -count=1 -run 'TestWindowSeedCorpus' ./internal/difftest/
go test -count=1 -run 'TestDeltaSeedCorpus' ./internal/collect/

# Fuzz gate, part 2: short smoke runs of every native fuzz target — the
# state-machine fuzzer over the ingest ops, the pcap differential fuzzer
# and the EM input fuzzer — plus the collect codec fuzzers that predate
# them. Ten seconds each is not a soak; it gates that the targets still
# build, the corpora still replay, and nothing shallow regressed.
go test -run NOMATCH -fuzz '^FuzzSketchOps$' -fuzztime 10s ./internal/difftest/
go test -run NOMATCH -fuzz '^FuzzPcapIngest$' -fuzztime 10s ./internal/difftest/
go test -run NOMATCH -fuzz '^FuzzEMInput$' -fuzztime 10s ./internal/difftest/
go test -run NOMATCH -fuzz '^FuzzDeltaFrame$' -fuzztime 10s ./internal/collect/
go test -run NOMATCH -fuzz '^FuzzWindowOps$' -fuzztime 10s ./internal/difftest/

# Window gate, part 1: the windowed differential battery under -race and
# uncached — every over-time query must equal the same query against a
# serial ingest of the concatenated covering windows, bit-exact, including
# with rotations racing live writers; plus the in-package ring suite
# (attach/retention/lookback/handler/telemetry) and the windowed snapshot
# codec golden vectors with their every-bit-flip rejection sweep.
go test -race -count=1 -run 'Window' \
  ./internal/difftest/ ./internal/window/ ./internal/collect/

# Window gate, part 2: the over-time query-throughput floor at the full
# 64-bucket lookback (TestOverTimeQueryFloor requires >= 100 queries/s on
# the test geometry; BENCH_overtime.json records the real numbers), and a
# bench smoke so those numbers stay regenerable.
go test -count=1 -run 'TestOverTimeQueryFloor' ./internal/window/
go test -run NOMATCH -bench 'QueryOverTime|Rotate' -benchtime 1x ./internal/window/

# Telemetry gate, part 1: the telemetry-plane suites race-enabled and
# uncached — registry/export correctness and exposition linting, the
# flight recorder (internal/telemetry/tracing), the accuracy self-report
# (internal/insight), engine instrumentation, and the poller health-cycle
# test that drives healthy->degraded->down->healthy through faultnet and
# asserts transition counters and log records. The fleet tracing test
# (full poll trace: gate wait -> client attempt -> decode -> delta apply
# -> absorb -> deliver) rides the Trac pattern.
go test -race -count=1 ./internal/telemetry/... ./internal/insight/
go test -race -count=1 -run 'Telemetry|Instrument|Trac|Insight' \
  ./internal/engine/ ./internal/collect/

# Telemetry gate, part 2: end-to-end smoke. Boot a switch with live
# endpoints, scrape /metrics through fcmctl, and require the key series
# of every subsystem to be present in the exposition.
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
kill "$SWITCH_PID"
SWITCH_PID=

#!/usr/bin/env sh
# Rebuilds the Release tree and records the perf-regression baseline in
# one command:
#
#   bench/run_benches.sh [build-dir] [days]
#
# Runs the campaign telemetry overhead gate (bench_micro_campaign), the
# scalar-vs-batched burst kernel comparison (bench_micro_latency_model)
# and the store scan kernels (bench_store_scan) at the paper's nine-month
# scale (270 days by default) and merges their numbers into
# results/BENCH_campaign.json — including campaign_telemetry_overhead_pct,
# the instrumented-vs-plain throughput delta. The serving benches write
# results/BENCH_serve.json. Paths are relative to the working directory;
# run from the repository root. Override the output files with
# SHEARS_BENCH_JSON / SHEARS_BENCH_JSON_SERVE, the pair count with
# SHEARS_BENCH_REPEATS, the telemetry gate with SHEARS_TELEMETRY_GATE_PCT
# (default 2%), the snapshot warm-start gate with SHEARS_SNAPSHOT_GATE
# (default 10x), and the optimizer incremental-scoring gate with
# SHEARS_OPT_GATE (default 10x).
# Exits non-zero if any bench fails its gate: among them, if an attached
# MetricsRegistry perturbs the dataset, if telemetry costs more than its
# gate allows, or if the batched kernel falls below its speedup bar.
set -eu

BUILD_DIR="${1:-build-bench}"
DAYS="${2:-270}"
SOURCE_DIR="$(cd "$(dirname "$0")/.." && pwd)"
JSON="${SHEARS_BENCH_JSON:-results/BENCH_campaign.json}"
JSON_SERVE="${SHEARS_BENCH_JSON_SERVE:-results/BENCH_serve.json}"

cmake -B "$BUILD_DIR" -S "$SOURCE_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j --target bench_micro_campaign \
  bench_micro_latency_model bench_serve bench_front bench_store_scan \
  bench_snapshot bench_opt >/dev/null

mkdir -p "$(dirname "$JSON")"
rm -f "$JSON"
echo "== burst kernel comparison (batched acceptance bar: 3x) =="
SHEARS_BENCH_JSON="$JSON" SHEARS_BATCHED_GATE="${SHEARS_BATCHED_GATE:-3}" \
  "$BUILD_DIR/bench/bench_micro_latency_model" --benchmark_filter=NONE
echo
echo "== store scan kernels ($DAYS days) =="
SHEARS_BENCH_DAYS="$DAYS" SHEARS_BENCH_JSON="$JSON" \
  SHEARS_SCAN_GATE="${SHEARS_SCAN_GATE:-1.2}" \
  "$BUILD_DIR/bench/bench_store_scan"
echo
echo "== campaign throughput + telemetry overhead ($DAYS days) =="
SHEARS_BENCH_DAYS="$DAYS" SHEARS_BENCH_JSON="$JSON" \
  "$BUILD_DIR/bench/bench_micro_campaign" --benchmark_filter=NONE
echo
echo "== serving layer: store build + oracle vs full scan ($DAYS days) =="
mkdir -p "$(dirname "$JSON_SERVE")"
rm -f "$JSON_SERVE"
SHEARS_BENCH_DAYS="$DAYS" SHEARS_BENCH_JSON="$JSON_SERVE" \
  "$BUILD_DIR/bench/bench_serve"
echo
echo "== serving front-end: overload session, qps under SLO ($DAYS days) =="
SHEARS_BENCH_DAYS="$DAYS" SHEARS_BENCH_JSON="$JSON_SERVE" \
  "$BUILD_DIR/bench/bench_front"
echo
echo "== store snapshot: warm start vs campaign replay ($DAYS days) =="
SHEARS_BENCH_DAYS="$DAYS" SHEARS_BENCH_JSON="$JSON_SERVE" \
  SHEARS_SNAPSHOT_GATE="${SHEARS_SNAPSHOT_GATE:-10}" \
  "$BUILD_DIR/bench/bench_snapshot"
echo
echo "== footprint optimizer: incremental scoring vs rebuild ($DAYS days) =="
SHEARS_BENCH_DAYS="$DAYS" SHEARS_BENCH_JSON="$JSON_SERVE" \
  SHEARS_OPT_GATE="${SHEARS_OPT_GATE:-10}" \
  "$BUILD_DIR/bench/bench_opt"
echo
echo "recorded: $JSON $JSON_SERVE"

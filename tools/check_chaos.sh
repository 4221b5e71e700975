#!/usr/bin/env bash
# Builds the repo with ASan+UBSan (-DPERDNN_SANITIZE=address) and runs the
# robustness surface under it: the fault-plan/timeline unit tests, the
# tests of the retry queue both engines share (MigrationDispatcherTest,
# including its backoff-overflow case), the end-to-end fault simulations,
# the fault-plan determinism gates (serial and sharded), and bench_chaos smoke
# runs (sweep + scripted plan + sharded fault scenario + strict-flag
# rejection). A second leg rebuilds with -DPERDNN_SIMD=OFF and re-runs the
# sharded fault suite so the scalar kernels get the same sanitizer coverage
# as the vector ones. Any sanitizer report fails the script.
#
# The budgeted-cache leg rides along: the CacheBudget suites (which include
# the crash-mid-pressure kill -9 resume byte-identity gate and per-interval
# budget-invariant checks) run under the sanitizers in both legs, plus the
# tile eviction index's brute-force equivalence test (TileResidency) and a
# bench_cache smoke run exercising eviction/partial-residency churn.
#
# Usage: tools/check_chaos.sh [build-dir]     (default: build-chaos)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-chaos}"

cmake -B "$BUILD_DIR" -S . -DPERDNN_SANITIZE=address -DPERDNN_SIMD=ON
cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target test_faults test_edge test_sim bench_chaos bench_cache

export PERDNN_THREADS=4
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1}"

CHAOS_TESTS='FaultPlan|FaultTimeline|FaultSim|MigrationDispatcher|LayerCache|TileResidency|ParallelDeterminism|SimulationConfigValidate|SimulationMetricsFault|ShardDeterminism|ShardFault|CacheBudget'

ctest --test-dir "$BUILD_DIR" --output-on-failure -R "$CHAOS_TESTS"

# Smoke: the chaos sweep runs end-to-end and the strict CLI rejects junk.
"$BUILD_DIR"/bench/bench_chaos --model mobilenet --seed 7 --threads 4

PLAN_FILE="$(mktemp)"
trap 'rm -f "$PLAN_FILE"' EXIT
cat > "$PLAN_FILE" <<'EOF'
{"events":[
  {"kind":"server_crash","at":2,"duration":4,"server":0},
  {"kind":"backhaul_degrade","at":1,"duration":5,"server":1,"peer":-2,"severity":1.0},
  {"kind":"telemetry_dropout","at":0,"duration":10,"server":2},
  {"kind":"client_disconnect","at":3,"duration":2,"client":0}
]}
EOF
"$BUILD_DIR"/bench/bench_chaos --plan "$PLAN_FILE" --json --threads 4 > /dev/null

# Smoke: the sharded chaos path (fault scenarios folded into the tiled
# engine) at a small scale, under the sanitizers.
"$BUILD_DIR"/bench/bench_chaos --sharded --clients 1500 --tiles-x 6 \
  --tiles-y 6 --intervals 8 --shards 4 --threads 4 > /dev/null

if "$BUILD_DIR"/bench/bench_chaos --definitely-not-a-flag 2> /dev/null; then
  echo "error: bench_chaos accepted an unknown flag" >&2
  exit 1
fi

# Smoke: the budgeted-cache sweep (eviction + partial-residency churn in
# every budgeted scenario) at a small scale, under the sanitizers.
"$BUILD_DIR"/bench/bench_cache --clients 1500 --tiles-x 6 --tiles-y 6 \
  --intervals 8 --shards 4 --threads 4 > /dev/null

if "$BUILD_DIR"/bench/bench_cache --definitely-not-a-flag 2> /dev/null; then
  echo "error: bench_cache accepted an unknown flag" >&2
  exit 1
fi

# ---- scalar leg: same sanitizer coverage with the SIMD kernels off --------
SCALAR_DIR="${BUILD_DIR}-scalar"
cmake -B "$SCALAR_DIR" -S . -DPERDNN_SANITIZE=address -DPERDNN_SIMD=OFF
cmake --build "$SCALAR_DIR" -j"$(nproc)" \
  --target test_faults test_sim bench_chaos

ctest --test-dir "$SCALAR_DIR" --output-on-failure \
  -R 'FaultTimeline|FaultSim|ShardDeterminism|ShardFault|ShardCacheBudget'

"$SCALAR_DIR"/bench/bench_chaos --sharded --clients 1500 --tiles-x 6 \
  --tiles-y 6 --intervals 8 --shards 4 --threads 4 > /dev/null

echo "Chaos check passed (build dirs: $BUILD_DIR, $SCALAR_DIR)"

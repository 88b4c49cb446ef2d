#!/usr/bin/env bash
# Build and run the concurrency-sensitive test suites under
# ThreadSanitizer. The parallel experiment runner promises deterministic,
# race-free shard execution; this is the check that enforces the
# "race-free" half (the determinism half is test_parallel_runner itself).
#
#   ./scripts/check_tsan.sh [build-dir]      # default: build-tsan
#
# Requires a compiler with -fsanitize=thread (GCC or Clang).
# Every failure path prints an explicit "TSan check FAILED" summary and
# exits non-zero — a broken sanitizer configure or build must never be
# mistaken for a pass.
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build-tsan}"

fail() {
  echo "TSan check FAILED: $1" >&2
  exit 1
}

cmake -B "$BUILD" -S . -DLIVESIM_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  || fail "configure with -fsanitize=thread did not succeed (compiler without TSan support?)"

cmake --build "$BUILD" --target livesim_tests livesim_resilience_tests \
      livesim_engine_alloc_tests livesim_poll_wheel_tests \
      livesim_control_tests livesim_crowd_tests livesim_backends_tests -j \
  || fail "sanitized build did not succeed"

[ -x "$BUILD"/tests/livesim_tests ] \
  || fail "sanitized test binary was not produced at $BUILD/tests/livesim_tests"

# The pool/shard layer plus the event-queue semantics it leans on. Any
# TSan report makes the binary exit non-zero (abort_on_error).
TSAN_OPTIONS="halt_on_error=1:abort_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$BUILD"/tests/livesim_tests --gtest_filter='ParallelRunner*:ParallelMap*:ParallelForShards*:ThreadPool*:ShardRanges*:SubstreamSeed*:Simulator*:SimulatorProperty*:PeriodicProcess*:EngineCancel*:EngineReschedule*:InplaceFunctionTest*' \
  || fail "data race or test failure in the parallel runner / simulator suites"

# The slot-arena engine's allocation-free contract, with the global
# operator-new hook active under TSan as well (the hook itself must not
# race).
TSAN_OPTIONS="halt_on_error=1:abort_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$BUILD"/tests/livesim_engine_alloc_tests \
  || fail "data race or test failure in the engine allocation-contract suite"

# The resilience experiments (randomized sweep, the regional-outage
# sweep and the capacity-spill driver's parallel phases) shard
# fault-injected broadcasts over the same pool; their determinism tests
# double as a race detector for the fault path.
TSAN_OPTIONS="halt_on_error=1:abort_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$BUILD"/tests/livesim_resilience_tests --gtest_filter='ResilienceDeterminism*:NoFaultParity*:RegionalDeterminism*:ScenarioExpansion*:CrowdDeterminism*:CapacitySpill*' \
  || fail "data race or test failure in the resilience determinism suites"

# The poll-wheel battery: cohort churn against the slot arena, plus the
# shared-wheel vs per-viewer-timer session differentials, the one HLS
# tick lane against its test oracle (crowd generation itself shards
# over the pool via parallel_map, so this doubles as a race check on the
# SoA ledger access pattern).
TSAN_OPTIONS="halt_on_error=1:abort_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$BUILD"/tests/livesim_poll_wheel_tests \
  || fail "data race or test failure in the poll-wheel battery"

# The control-plane battery: the steering experiment shards fault-
# injected broadcasts over the pool (control_steering_experiment runs a
# full capacity-spill sweep per thread count), so its determinism and
# off-parity suites double as a race check on the scrape/publish path.
TSAN_OPTIONS="halt_on_error=1:abort_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$BUILD"/tests/livesim_control_tests \
  || fail "data race or test failure in the control-plane battery"

# The crowd battery: the flash-crowd experiment shards whole services
# (engine + wheels + control plane + crowd drive) over the pool per
# channel, so its thread-determinism suite doubles as a race check on
# the entire service stack under parallel_map.
TSAN_OPTIONS="halt_on_error=1:abort_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$BUILD"/tests/livesim_crowd_tests \
  || fail "data race or test failure in the crowd battery"

# The sub-shard battery, explicitly: the intra-channel axis runs several
# (channel, sub-shard) units of ONE channel on distinct workers via
# parallel_for_plan, so the {1,2,7} x threads {1,2,8} grid is the race
# check for the weighted-plan scheduler and the per-unit wall clocks.
TSAN_OPTIONS="halt_on_error=1:abort_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$BUILD"/tests/livesim_crowd_tests \
  --gtest_filter='CrowdShardPlan*:FlashCrowdSubShard*' \
  || fail "data race or test failure in the intra-channel sub-shard battery"

# The backend battery: the three-lane breakdown experiment shards whole
# sessions (including the LL-HLS part pipeline and held-poll timers)
# over the pool per repetition, so its determinism suite doubles as a
# race check on the blocking-reload path.
TSAN_OPTIONS="halt_on_error=1:abort_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}" \
  "$BUILD"/tests/livesim_backends_tests \
  || fail "data race or test failure in the delivery-backend battery"

echo "TSan check passed: no data races in the parallel runner, simulator, engine, resilience, control-plane, crowd, sub-shard, or backend suites."

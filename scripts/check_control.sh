#!/usr/bin/env bash
# Control-plane smoke check: builds the steering subsystem's test and
# bench targets, runs the `control`-labelled ctest suite, then runs the
# steering bench and asserts the printed contracts:
#   * control-plane-off parity: with control disabled the steering
#     experiment reproduces the capacity-spill experiment bit for bit
#     ("control-plane-off parity ... identical: yes" for every
#     radius x capacity pair),
#   * pointwise dominance: on the blackout grid every affected viewer's
#     proactive detection time is <= its reactive detection time
#     ("dominance on blackout grid ... yes"),
#   * thread-count determinism with steering ON ("identical: yes" for
#     threads 1/2/8),
#   * the session demos: proactive migration beats the client failover
#     timeout (6/6 migrated, 0 orphans) and the overlay assist parks
#     capacity orphans on the mesh.
#
#   ./scripts/check_control.sh [build-dir]    # default: build
#
# Every failure path prints "control check FAILED" and exits non-zero.
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"

fail() {
  echo "control check FAILED: $1" >&2
  exit 1
}

cmake -B "$BUILD" -S . || fail "configure did not succeed"
cmake --build "$BUILD" -j \
      --target livesim_control_tests bench_control_steering \
  || fail "build did not succeed"

ctest --test-dir "$BUILD" -L control --output-on-failure \
  || fail "control-labelled tests failed"

# 300 broadcasts: the size of the tracked BENCH_control.json, so
# scripts/check_pins.py can compare the rewrite with the committed copy.
OUT="$("$BUILD"/bench/bench_control_steering BENCH_control.json 300)" \
  || fail "bench_control_steering exited non-zero"

# Off-parity: one line per radius x capacity pair (2x2 sweep), and every
# one of them must fingerprint identically to the capacity-spill run.
PARITY_LINES=$(echo "$OUT" | grep -c "control-plane-off parity:")
[ "$PARITY_LINES" -ge 4 ] \
  || fail "expected at least 4 control-plane-off parity lines, got $PARITY_LINES"
echo "$OUT" | grep "control-plane-off parity:" | grep -qv "identical: yes" \
  && fail "control-plane-off run is NOT bit-identical to the capacity-spill experiment"

echo "$OUT" | grep -q \
  "control_steering dominance on blackout grid (proactive <= reactive, pointwise): yes" \
  || fail "proactive detection does not dominate reactive detection pointwise"

for t in 1 2 8; do
  echo "$OUT" | grep -q "control_steering threads=$t .*identical: yes" \
    || fail "steering results not bit-identical at threads=$t"
done

echo "$OUT" | grep -q \
  "session steering contract: proactive beats the client timeout: yes" \
  || fail "session demo: steering did not migrate every viewer before the client timeout"

echo "$OUT" | grep -q \
  "overlay assist contract: capacity orphans ride the mesh: yes" \
  || fail "session demo: overlay assist did not park capacity orphans on the mesh"

echo "$OUT" | grep -q "all checks passed" \
  || fail "control steering bench did not reach its final all-clear"

echo "control check passed: off-parity bit-identical, proactive dominates reactive pointwise, steering thread-deterministic, session steering and overlay assist functional."

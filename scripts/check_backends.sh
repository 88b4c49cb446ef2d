#!/usr/bin/env bash
# Delivery-tier check: builds the tier battery's test and bench
# targets, runs the `backends`-labelled ctest suite (the two-tier session
# goldens and the three-tier LL-HLS golden table among them), then runs
# the crossover bench and asserts the printed contracts:
#   * thread-count determinism: the three-lane breakdown experiment
#     fingerprints byte-identically at threads 1/2/8 ("identical: yes"),
#   * the delay-ordering contract: RTMP < LL-HLS < HLS end to end,
#   * the legacy-parity contract: the two-lane
#     delay_breakdown_experiment(4, 42) still hashes to its pin
#     ("legacy parity: yes") -- two-tier behaviour did not drift,
#   * the Figure-14 cost contract: LL-HLS server cost strictly between
#     HLS and RTMP once viewers amortise the part pipeline, the
#     part-slicing fixed cost visible at zero viewers, and RTMP
#     overtaking HLS before it overtakes LL-HLS.
#
#   ./scripts/check_backends.sh [build-dir]    # default: build
#
# Every failure path prints "backends check FAILED" and exits non-zero.
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"

fail() {
  echo "backends check FAILED: $1" >&2
  exit 1
}

cmake -B "$BUILD" -S . || fail "configure did not succeed"
cmake --build "$BUILD" -j \
      --target livesim_backends_tests bench_backend_crossover \
  || fail "build did not succeed"

ctest --test-dir "$BUILD" -L backends --output-on-failure \
  || fail "backends-labelled tests failed"

# Capture to a file and grep the file, rather than `echo "$OUT" | grep`
# pipelines: under `set -o pipefail` a pipe stage's exit status can
# mask a successful match, and the file leaves the full transcript on
# disk when a contract does fail.
OUT="$BUILD/backends_check.out"
"$BUILD"/bench/bench_backend_crossover BENCH_backends.json > "$OUT" \
  || fail "bench_backend_crossover exited non-zero (transcript in $OUT)"
cat "$OUT"

for t in 1 2 8; do
  grep -q "backend_crossover threads=$t .*identical: yes" "$OUT" \
    || fail "backend breakdown experiment not bit-identical at threads=$t"
done

grep -q "backend_crossover delay ordering rtmp < llhls < hls: yes" "$OUT" \
  || fail "LL-HLS end-to-end delay is not between RTMP and HLS"

grep -q "backend_crossover legacy fingerprint=.* legacy parity: yes" "$OUT" \
  || fail "legacy delay-breakdown fingerprint drifted from its pin"

grep -q \
  "backend_crossover llhls between hls and rtmp (viewers >= 2): yes" "$OUT" \
  || fail "LL-HLS server cost is not between HLS and RTMP"

grep -q \
  "backend_crossover part-slicing fixed cost visible at zero viewers: yes" \
  "$OUT" \
  || fail "the part pipeline's fixed cost vanished at zero viewers"

grep -q "backend_crossover crossover: .* (hls first: yes)" "$OUT" \
  || fail "RTMP did not overtake HLS before LL-HLS on the cost sweep"

grep -q "all checks passed" "$OUT" \
  || fail "backend bench did not reach its final all-clear"
rm -f "$OUT"

[ -s BENCH_backends.json ] || fail "BENCH_backends.json was not written"

echo "backends check passed: two-tier configs match their pin, LL-HLS delay and server cost both strictly between RTMP and HLS, three-lane experiment thread-deterministic."

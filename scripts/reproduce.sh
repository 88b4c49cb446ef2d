#!/usr/bin/env bash
# Reproduce every table and figure of the paper from a clean checkout.
#
#   ./scripts/reproduce.sh [output-dir]
#
# Builds the library, runs the full test suite, executes every bench
# (optionally exporting plot-ready CSVs), and leaves the transcripts in
# the output directory.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-reproduction}"
mkdir -p "$OUT"

cmake -B build
cmake --build build

ctest --test-dir build --output-on-failure 2>&1 | tee "$OUT/test_output.txt"

export LIVESIM_CSV_DIR="$OUT"
: > "$OUT/bench_output.txt"
for b in build/bench/*; do
  echo "### $(basename "$b")" | tee -a "$OUT/bench_output.txt"
  "$b" 2>&1 | tee -a "$OUT/bench_output.txt"
done

echo
echo "Done. Paper-vs-measured ledger: EXPERIMENTS.md"
echo "Transcripts and CSVs: $OUT/"

#!/usr/bin/env bash
# Golden check of one paper bench (ctest label `paper`): runs the bench in
# a fresh temporary directory, where it writes its CSVs under
# bench_results/, and requires each named CSV to be byte-identical to the
# committed copy.  The bench's own exit status counts too, so a
# [SHAPE-DIFF] fails the check.
#
# Usage: paper_csv_check.sh <bench> <golden_dir> <csv>...
set -euo pipefail

BENCH=$1
GOLDEN=$2
shift 2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

if ! (cd "$WORK" && "$BENCH" >bench.log 2>&1); then
  cat "$WORK/bench.log"
  echo "$(basename "$BENCH") exited nonzero"
  exit 1
fi

STATUS=0
for CSV in "$@"; do
  if cmp -s "$WORK/bench_results/$CSV" "$GOLDEN/$CSV"; then
    echo "$CSV: byte-identical"
  else
    echo "$CSV: differs from $GOLDEN/$CSV"
    diff "$GOLDEN/$CSV" "$WORK/bench_results/$CSV" || true
    STATUS=1
  fi
done
exit "$STATUS"

#!/usr/bin/env bash
# Self-test of the paper golden gate: paper_csv_check.sh must pass a
# fixture bench whose CSV matches its golden, and exit 1 on a one-byte CSV
# change, on a missing CSV and on a nonzero bench exit.
#
# Usage: paper_csv_check_test.sh <paper_csv_check.sh>
set -euo pipefail

CHECK=$1

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

mkdir "$WORK/golden"
printf 'x,y\n1,2\n' >"$WORK/golden/fixture.csv"

# fixture_bench <name> <csv body, empty for none> <exit status>: a bench
# that writes bench_results/fixture.csv in its working directory.
fixture_bench() {
  {
    echo '#!/usr/bin/env bash'
    echo 'mkdir -p bench_results'
    if [ -n "$2" ]; then
      echo "printf '$2' >bench_results/fixture.csv"
    fi
    echo "exit $3"
  } >"$WORK/$1"
  chmod +x "$WORK/$1"
}

FAILED=0
# expect <exit status> <bench>
expect() {
  local got=0
  "$CHECK" "$WORK/$2" "$WORK/golden" fixture.csv >"$WORK/$2.log" 2>&1 ||
    got=$?
  if [ "$got" -eq "$1" ]; then
    echo "$2: exit $got, as expected"
  else
    echo "$2: exit $got, expected $1"
    cat "$WORK/$2.log"
    FAILED=1
  fi
}

fixture_bench identical 'x,y\n1,2\n' 0
fixture_bench one_byte_changed 'x,y\n1,3\n' 0
fixture_bench csv_missing '' 0
fixture_bench bench_failed 'x,y\n1,2\n' 1

expect 0 identical
expect 1 one_byte_changed
expect 1 csv_missing
expect 1 bench_failed
exit "$FAILED"

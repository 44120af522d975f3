#!/usr/bin/env bash
# Stable-name check of the gtest binaries: lists each binary's tests in two
# separate processes and requires the two listings to match.
# gtest_discover_tests copies every listed name, including the printed
# parameter of a value-parameterized test, into a ctest name.  A parameter
# printed as raw bytes that hold an address (a pointer, or a vector's heap
# buffer) lists differently in every process under address-space
# randomisation, so its ctest names would change from build to build.
#
# Usage: stable_test_names_check.sh <gtest binary>...
set -euo pipefail

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

STATUS=0
for BIN in "$@"; do
  "$BIN" --gtest_list_tests >"$WORK/first"
  "$BIN" --gtest_list_tests >"$WORK/second"
  if ! cmp -s "$WORK/first" "$WORK/second"; then
    echo "$(basename "$BIN"): test names differ between two runs"
    diff "$WORK/first" "$WORK/second" || true
    STATUS=1
  fi
done
exit "$STATUS"

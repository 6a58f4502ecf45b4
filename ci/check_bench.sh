#!/usr/bin/env bash
# BENCH.json regression guard, shared by every bench step in CI.
#
# `repro` writing into a results directory must *merge* with the
# experiments already consolidated there — upsert, not clobber. This
# script asserts that contract after each upsert: every experiment id
# the caller names must still be present, and every report in the
# directory must round-trip through `elk validate`.
#
# Usage: ci/check_bench.sh <results-dir> <experiment-id>...
set -euo pipefail

dir="${1:?usage: ci/check_bench.sh <results-dir> <experiment-id>...}"
shift
bench="$dir/BENCH.json"

test -f "$bench" || { echo "check_bench: missing $bench" >&2; exit 1; }
test "$#" -ge 1 || { echo "check_bench: no expected experiment ids given" >&2; exit 1; }

for id in "$@"; do
  if ! grep -q "\"$id\": {" "$bench"; then
    echo "check_bench: BENCH.json lost experiment '$id' — upsert clobbered it" >&2
    exit 1
  fi
done

cargo run --release --bin elk -- validate "$dir"

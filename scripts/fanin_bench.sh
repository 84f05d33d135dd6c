#!/usr/bin/env bash
# Wide-fleet merge gate (DESIGN.md §13): the coordinator's per-round merge
# fold for a 64-leaf fan-in-4 aggregator tree (4 top slots, height 2) must
# stay within MERGE_FANIN_MAX (default 8x) of the flat 4-worker baseline,
# and the flat 64-worker fold it replaces must cost at least
# MERGE_FANIN_WIN (default 3x) more than the tree — i.e. the tier actually
# removes the O(W) coordinator fold instead of merely relocating it. All
# three shapes play the identical total batch, so the metric isolates the
# fan-in-dependent fold overhead. Benchmarks run interleaved -count times
# and the minima are compared — the min is the noise-robust estimator for
# a "how fast can this go" ratio on shared CI hardware.
set -euo pipefail
cd "$(dirname "$0")/.."

MERGE_FANIN_MAX="${MERGE_FANIN_MAX:-8.0}"
MERGE_FANIN_WIN="${MERGE_FANIN_WIN:-3.0}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-2x}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

go test ./internal/collect -run=NONE \
  -bench='^BenchmarkMergeFanin$/(Flat4|Flat64|Tree64)$' \
  -benchtime="$BENCHTIME" -count="$COUNT" | tee "$OUT"

awk -v max="$MERGE_FANIN_MAX" -v win="$MERGE_FANIN_WIN" '
  # The merge share is the custom metric column: the value preceding the
  # "merge-ns/round" unit token.
  function metric(   i) {
    for (i = 2; i <= NF; i++) if ($i == "merge-ns/round") return $(i - 1)
    return 0
  }
  $1 ~ /^BenchmarkMergeFanin\/Flat4(-[0-9]+)?$/  { v = metric(); if (flat4 == 0 || v < flat4) flat4 = v }
  $1 ~ /^BenchmarkMergeFanin\/Flat64(-[0-9]+)?$/ { v = metric(); if (flat64 == 0 || v < flat64) flat64 = v }
  $1 ~ /^BenchmarkMergeFanin\/Tree64(-[0-9]+)?$/ { v = metric(); if (tree64 == 0 || v < tree64) tree64 = v }
  END {
    if (flat4 == 0 || flat64 == 0 || tree64 == 0) {
      print "FAIL: missing benchmark results (flat4=" flat4 ", flat64=" flat64 ", tree64=" tree64 ")" > "/dev/stderr"
      exit 1
    }
    ratio = tree64 / flat4
    save = flat64 / tree64
    printf "merge fan-in: flat-4 %d ns/round, flat-64 %d ns/round, tree-64 %d ns/round\n", flat4, flat64, tree64
    printf "merge fan-in: tree-64 / flat-4 = %.2f (max %s), flat-64 / tree-64 = %.2f (min %s)\n", ratio, max, save, win
    if (ratio > max) {
      print "FAIL: tree merge drifted away from the flat baseline" > "/dev/stderr"
      exit 1
    }
    if (save < win) {
      print "FAIL: the tree no longer removes the O(W) coordinator fold" > "/dev/stderr"
      exit 1
    }
  }' "$OUT"

echo "merge fan-in gate: OK"

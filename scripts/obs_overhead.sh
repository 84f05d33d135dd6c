#!/usr/bin/env bash
# Observability overhead gate: the instrumented cluster round
# (BenchmarkClusterRoundObs — registry + logger + ring attached) must cost
# within OBS_OVERHEAD_MAX (default 1.03, i.e. ≤ 3%) of the unobserved
# BenchmarkClusterRound. The two benchmarks run interleaved: COUNT
# iterations, each running both once and alternating which goes first, so
# slow drift of a shared machine's speed hits both sides alike. The minima
# are compared — the min is the noise-robust estimator for a "how fast can
# this go" ratio on shared CI hardware.
set -euo pipefail
cd "$(dirname "$0")/.."

OBS_OVERHEAD_MAX="${OBS_OVERHEAD_MAX:-1.03}"
COUNT="${COUNT:-6}"
BENCHTIME="${BENCHTIME:-2x}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
OUT="$TMP/bench.txt"
BIN="$TMP/collect.test"

# Build once; every run below is the same binary, started from the package
# directory as go test would.
go test -c -o "$BIN" ./internal/collect

run() {
  (cd internal/collect && "$BIN" -test.run=NONE -test.bench="^$1\$/Workers4\$" \
    -test.benchtime="$BENCHTIME" -test.count=1) | tee -a "$OUT"
}

for ((i = 0; i < COUNT; i++)); do
  if ((i % 2 == 0)); then
    run BenchmarkClusterRound
    run BenchmarkClusterRoundObs
  else
    run BenchmarkClusterRoundObs
    run BenchmarkClusterRound
  fi
done

awk -v max="$OBS_OVERHEAD_MAX" '
  $1 ~ /^BenchmarkClusterRoundObs\// { if (obs == 0 || $3 < obs) obs = $3 }
  $1 ~ /^BenchmarkClusterRound\//    { if (base == 0 || $3 < base) base = $3 }
  END {
    if (base == 0 || obs == 0) {
      print "FAIL: missing benchmark results (base=" base ", obs=" obs ")" > "/dev/stderr"
      exit 1
    }
    ratio = obs / base
    printf "obs overhead: baseline %d ns/op, instrumented %d ns/op, ratio %.4f (max %s)\n", base, obs, ratio, max
    if (ratio > max) {
      print "FAIL: instrumentation overhead exceeds the budget" > "/dev/stderr"
      exit 1
    }
  }' "$OUT"

echo "obs overhead: OK"

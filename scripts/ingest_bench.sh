#!/usr/bin/env bash
# Ingest throughput gate (DESIGN.md §12): run the summary ingest trajectory
# (BenchmarkStreamPush → PushBatch → PushParallel, 100k points per op),
# take the min ns/op of each over -count interleaved runs, write the
# machine-readable BENCH_ingest.json, and fail unless the buffered batch
# path is at least INGEST_SPEEDUP_MIN times the single-push baseline
# (default 3.0 — serial batch measures ~4-4.7x; the gate leaves headroom
# for shared runners). The parallel row is reported but not gated: its
# speedup is batch x cores — that product is the >= 5x worker-ingest
# target — and CI core counts vary.
set -euo pipefail
cd "$(dirname "$0")/.."

INGEST_SPEEDUP_MIN="${INGEST_SPEEDUP_MIN:-3.0}"
COUNT="${COUNT:-6}"
BENCHTIME="${BENCHTIME:-2x}"
JSON="${JSON:-BENCH_ingest.json}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

go test ./internal/stats/summary -run=NONE \
  -bench='^BenchmarkStreamPush(Batch|Parallel)?$' \
  -benchtime="$BENCHTIME" -count="$COUNT" | tee "$OUT"

awk -v min="$INGEST_SPEEDUP_MIN" -v json="$JSON" '
  $1 ~ /^BenchmarkStreamPush-|^BenchmarkStreamPush$/          { if (single == 0 || $3 < single) single = $3 }
  $1 ~ /^BenchmarkStreamPushBatch(-|$)/                       { if (batch == 0 || $3 < batch) batch = $3 }
  $1 ~ /^BenchmarkStreamPushParallel(-|$)/                    { if (par == 0 || $3 < par) par = $3 }
  END {
    if (single == 0 || batch == 0 || par == 0) {
      print "FAIL: missing benchmark results (single=" single ", batch=" batch ", parallel=" par ")" > "/dev/stderr"
      exit 1
    }
    points = 100000
    speedup = single / batch
    printf "{\n" > json
    printf "  \"points_per_op\": %d,\n", points >> json
    printf "  \"single_ns_op\": %d,\n", single >> json
    printf "  \"batch_ns_op\": %d,\n", batch >> json
    printf "  \"parallel_ns_op\": %d,\n", par >> json
    printf "  \"single_points_per_sec\": %.0f,\n", points * 1e9 / single >> json
    printf "  \"batch_points_per_sec\": %.0f,\n", points * 1e9 / batch >> json
    printf "  \"parallel_points_per_sec\": %.0f,\n", points * 1e9 / par >> json
    printf "  \"batch_speedup\": %.2f,\n", speedup >> json
    printf "  \"parallel_speedup\": %.2f\n", single / par >> json
    printf "}\n" >> json
    printf "ingest: single %d ns/op, batch %d ns/op (%.2fx), parallel %d ns/op (%.2fx), gate %.1fx\n",
      single, batch, speedup, par, single / par, min
    if (speedup < min) {
      print "FAIL: batch ingest speedup below the gate" > "/dev/stderr"
      exit 1
    }
  }' "$OUT"

echo "ingest throughput: OK (wrote $JSON)"

#!/usr/bin/env bash
# Worker-held kept-row gate (DESIGN.md §14): run the rows memory pair
# (BenchmarkRowsRoundResident vs BenchmarkRowsRoundStored, each at 1x and
# 4x total rows) and the rows latency pair (BenchmarkRowsRoundDelayed vs
# BenchmarkRowsRoundPipelined, 5 ms injected per-call latency), take the
# min of each metric over -count interleaved runs, write the
# machine-readable BENCH_rows.json, and fail unless
#   1. the stored (worker-held pool) coordinator retained bytes stay flat:
#      stored 4x <= ROWS_MEM_FLAT_MAX x max(stored 1x, ROWS_MEM_FLOOR) —
#      the floor keeps the ratio meaningful when the flat footprint is a
#      few hundred bytes of board + manifest;
#   2. the resident baseline actually grows with rows (resident 4x/1x >=
#      ROWS_MEM_GROWTH), proving the metric is sensitive and the stored
#      flatness is not a measurement artifact; and
#   3. the pipelined late-center row round wins >= ROWS_SPEEDUP_MIN on
#      ms/round under injected latency (R+1 fan-outs vs 2R: ~1.85x at 12
#      rounds; the 1.5 default leaves headroom for shared runners).
set -euo pipefail
cd "$(dirname "$0")/.."

ROWS_SPEEDUP_MIN="${ROWS_SPEEDUP_MIN:-1.5}"
ROWS_MEM_FLAT_MAX="${ROWS_MEM_FLAT_MAX:-1.5}"
ROWS_MEM_GROWTH="${ROWS_MEM_GROWTH:-2.0}"
ROWS_MEM_FLOOR="${ROWS_MEM_FLOOR:-4096}"
COUNT="${COUNT:-5}"
BENCHTIME="${BENCHTIME:-2x}"
JSON="${JSON:-BENCH_rows.json}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

go test ./internal/collect -run=NONE \
  -bench='^BenchmarkRowsRound(Resident|Stored)$/Rows(1|4)x$|^BenchmarkRowsRound(Delayed|Pipelined)$' \
  -benchtime="$BENCHTIME" -count="$COUNT" | tee "$OUT"

awk -v win="$ROWS_SPEEDUP_MIN" -v flat="$ROWS_MEM_FLAT_MAX" \
    -v growth="$ROWS_MEM_GROWTH" -v floor="$ROWS_MEM_FLOOR" -v json="$JSON" '
  # Custom metrics are value-then-unit columns; pull the value preceding
  # the requested unit token.
  function metric(unit,   i) {
    for (i = 2; i <= NF; i++) if ($i == unit) return $(i - 1)
    return -1
  }
  function fold(cur, v) { return (cur < 0 || v < cur) ? v : cur }
  BEGIN { r1 = r4 = s1 = s4 = del = pip = -1 }
  $1 ~ /^BenchmarkRowsRoundResident\/Rows1x(-[0-9]+)?$/ { r1 = fold(r1, metric("coordB")) }
  $1 ~ /^BenchmarkRowsRoundResident\/Rows4x(-[0-9]+)?$/ { r4 = fold(r4, metric("coordB")) }
  $1 ~ /^BenchmarkRowsRoundStored\/Rows1x(-[0-9]+)?$/   { s1 = fold(s1, metric("coordB")) }
  $1 ~ /^BenchmarkRowsRoundStored\/Rows4x(-[0-9]+)?$/   { s4 = fold(s4, metric("coordB")) }
  $1 ~ /^BenchmarkRowsRoundDelayed(-[0-9]+)?$/          { del = fold(del, metric("ms/round")) }
  $1 ~ /^BenchmarkRowsRoundPipelined(-[0-9]+)?$/        { pip = fold(pip, metric("ms/round")) }
  END {
    if (r1 < 0 || r4 < 0 || s1 < 0 || s4 < 0 || del <= 0 || pip <= 0) {
      print "FAIL: missing benchmark results (resident=" r1 "/" r4 \
            ", stored=" s1 "/" s4 ", delayed=" del ", pipelined=" pip ")" > "/dev/stderr"
      exit 1
    }
    base = (s1 > floor) ? s1 : floor
    flatness = s4 / base
    grow = r4 / ((r1 > floor) ? r1 : floor)
    speedup = del / pip
    printf "{\n" > json
    printf "  \"resident_1x_coord_bytes\": %d,\n", r1 >> json
    printf "  \"resident_4x_coord_bytes\": %d,\n", r4 >> json
    printf "  \"stored_1x_coord_bytes\": %d,\n", s1 >> json
    printf "  \"stored_4x_coord_bytes\": %d,\n", s4 >> json
    printf "  \"resident_growth\": %.2f,\n", grow >> json
    printf "  \"stored_flatness\": %.2f,\n", flatness >> json
    printf "  \"delayed_ms_round\": %.3f,\n", del >> json
    printf "  \"pipelined_ms_round\": %.3f,\n", pip >> json
    printf "  \"pipeline_speedup\": %.2f\n", speedup >> json
    printf "}\n" >> json
    printf "rows memory: resident %d -> %d B (%.2fx), stored %d -> %d B (%.2fx vs floor %d, max %s)\n",
      r1, r4, grow, s1, s4, flatness, floor, flat
    printf "rows latency: delayed %.2f ms/round, pipelined %.2f ms/round (%.2fx, min %s)\n",
      del, pip, speedup, win
    if (flatness > flat) {
      print "FAIL: stored coordinator bytes grew with total rows (pool no longer worker-held)" > "/dev/stderr"
      exit 1
    }
    if (grow < growth) {
      print "FAIL: resident baseline did not grow with rows; the memory metric lost sensitivity" > "/dev/stderr"
      exit 1
    }
    if (speedup < win) {
      print "FAIL: pipelined row round below the ms/round gate" > "/dev/stderr"
      exit 1
    }
  }' "$OUT"

echo "rows memory & latency gate: OK (wrote $JSON)"

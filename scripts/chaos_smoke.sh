#!/usr/bin/env bash
# Chaos smoke for the fleet runtime (DESIGN.md §8): real processes, real
# sockets, real kill -9.
#
# Scenario A — worker kill + re-join: a TCP worker is killed mid-game and
# re-spawned with `-rejoin` on its old address; the coordinator must
# re-admit it at a round boundary and the run must match the uninterrupted
# shard-local reference record for record outside the degraded window
# (the coordinator verifies and fails otherwise).
#
# Scenario B — coordinator kill + resume: the coordinator is killed
# mid-game and restarted with `-resume`; it must finish from its latest
# checkpoint and match the reference record for record.
#
# Scenario C — mid-tree aggregator kill + re-join (DESIGN.md §13): eight
# TCP workers sit behind two `trimlab aggregator` processes and the
# coordinator talks only to the aggregators. One aggregator is killed -9
# mid-game — the coordinator must charge all four of that subtree's leaves
# as per-leaf shard losses — and a fresh aggregator re-spawned with
# `-rejoin` on the old address (re-dialling the still-running workers)
# must be re-admitted at a round boundary, after which the coordinator
# verifies the post-recovery records against the flat 8-shard reference.
#
# COORD_FLAGS adds extra coordinator flags to every run — CI runs the
# whole script a second time with COORD_FLAGS=-pipeline so the overlapped
# round schedule survives the same kill -9 chaos (speculation must flush at
# the membership change and the verification must still pass).
#
# Scenario A also exercises the observability endpoint mid-chaos: the
# coordinator serves -obs-addr, and while the game is still running the
# script scrapes /metrics until trimlab_shard_loss_total and
# trimlab_ingress_bytes_total (the reply bytes the coordinator received
# over TCP) go nonzero and /events until the fleet-admit (re-join) event
# lands — then asserts the event ring shows the loss strictly before the
# re-admission.
#
# Every kill lands at a round the game has reached, not at a wall time: the
# script polls the coordinator's trimlab_round gauge on its -obs-addr
# /metrics (each scenario's coordinator serves its own port) until round
# KILL_ROUND, and fails if the coordinator exits first. Needs curl.
set -euo pipefail

TRIMLAB="${TRIMLAB:-/tmp/trimlab-chaos}"
WORKDIR="$(mktemp -d)"
PORT0="${PORT0:-7401}"
PORT1="${PORT1:-7402}"
OBS_PORT="${OBS_PORT:-7403}"
OBS_PORT_B="${OBS_PORT_B:-7406}"
OBS_PORT_C="${OBS_PORT_C:-7407}"
# Each kill lands at round KILL_ROUND of ROUNDS, leaving most of the game
# for the re-join and the verified post-recovery records.
ROUNDS=400
KILL_ROUND=40
BATCH=100000
SEED=7
COORD_FLAGS="${COORD_FLAGS:-}"
OBS_URL="http://127.0.0.1:$OBS_PORT"

command -v curl >/dev/null 2>&1 || {
  echo "FAIL: curl is required to read the coordinator's round from /metrics" >&2
  exit 1
}

# poll_obs PATH PATTERN LABEL: curl $OBS_URL$PATH until a line matches
# PATTERN (extended regex) or ~20 s pass — the coordinator must still be
# mid-game, so a timeout means the signal never surfaced live.
poll_obs() {
  local path="$1" pattern="$2" label="$3" i
  for i in $(seq 1 100); do
    if curl -fsS "$OBS_URL$path" 2>/dev/null | grep -Eq "$pattern"; then
      return 0
    fi
    sleep 0.2
  done
  echo "FAIL: $label never appeared on $path while the game ran" >&2
  curl -fsS "$OBS_URL$path" >&2 2>/dev/null || true
  return 1
}

# wait_round URL PID LABEL: poll URL/metrics until the coordinator's
# trimlab_round gauge reaches KILL_ROUND. Fails if the coordinator (PID)
# exits first or ~60 s pass.
wait_round() {
  local url="$1" pid="$2" label="$3" i r
  for i in $(seq 1 600); do
    if ! kill -0 "$pid" 2>/dev/null; then
      echo "FAIL: $label: the coordinator exited before round $KILL_ROUND, so the kill would miss the game" >&2
      return 1
    fi
    r="$(curl -fsS "$url/metrics" 2>/dev/null | awk '$1 == "trimlab_round" { print int($2) }')" || r=""
    if [ -n "$r" ] && [ "$r" -ge "$KILL_ROUND" ]; then
      echo "-- $label: coordinator at round $r"
      return 0
    fi
    sleep 0.1
  done
  echo "FAIL: $label: the coordinator did not reach round $KILL_ROUND within 60 s" >&2
  return 1
}

# cleanup stops every child process, then removes the work directory after
# a passing run; a failing run keeps its logs and checkpoints and says where.
cleanup() {
  local status=$?
  pkill -P $$ 2>/dev/null || true
  wait 2>/dev/null || true
  if [ "$status" -eq 0 ]; then
    rm -rf "$WORKDIR"
  else
    echo "chaos smoke: logs and checkpoints kept in $WORKDIR" >&2
  fi
}
trap cleanup EXIT

go build -o "$TRIMLAB" ./cmd/trimlab

echo "== scenario A: worker kill + re-join =="
"$TRIMLAB" worker -listen "127.0.0.1:$PORT0" -id 0 >"$WORKDIR/w0.log" 2>&1 &
"$TRIMLAB" worker -listen "127.0.0.1:$PORT1" -id 1 >"$WORKDIR/w1.log" 2>&1 &
W1_PID=$!
"$TRIMLAB" coordinator -workers "127.0.0.1:$PORT0,127.0.0.1:$PORT1" \
  -rejoin -heartbeat 100ms -rounds "$ROUNDS" -batch "$BATCH" -seed "$SEED" \
  -obs-addr "127.0.0.1:$OBS_PORT" $COORD_FLAGS \
  >"$WORKDIR/coordA.log" 2>&1 &
COORD_PID=$!
wait_round "$OBS_URL" "$COORD_PID" "scenario A" || { cat "$WORKDIR/coordA.log" >&2; exit 1; }
kill -9 "$W1_PID"
sleep 0.5
"$TRIMLAB" worker -listen "127.0.0.1:$PORT1" -id 1 -rejoin >"$WORKDIR/w1b.log" 2>&1 &
echo "-- scraping $OBS_URL mid-game"
poll_obs /metrics '^trimlab_shard_loss_total [1-9]' "nonzero trimlab_shard_loss_total"
poll_obs /metrics '^trimlab_ingress_bytes_total [1-9]' "nonzero trimlab_ingress_bytes_total"
poll_obs /events '"kind":"fleet-admit"' "fleet-admit (re-join) event"
curl -fsS "$OBS_URL/events" >"$WORKDIR/events.ndjson"
loss_line="$(grep -n '"kind":"shard-loss"' "$WORKDIR/events.ndjson" | head -1 | cut -d: -f1)"
admit_line="$(grep -n '"kind":"fleet-admit"' "$WORKDIR/events.ndjson" | head -1 | cut -d: -f1)"
if [ -z "$loss_line" ] || [ -z "$admit_line" ] || [ "$loss_line" -ge "$admit_line" ]; then
  echo "FAIL: event ring does not show shard-loss (line ${loss_line:-none}) before fleet-admit (line ${admit_line:-none})" >&2
  cat "$WORKDIR/events.ndjson" >&2
  exit 1
fi
echo "-- /metrics and /events live: reply bytes counted, shard loss observed, then re-join (events $loss_line < $admit_line)"
if ! wait "$COORD_PID"; then
  echo "FAIL: coordinator exited non-zero after kill/re-join" >&2
  cat "$WORKDIR/coordA.log" >&2
  exit 1
fi
grep -q "re-joined" "$WORKDIR/coordA.log" || {
  echo "FAIL: worker never re-joined (kill/respawn missed the game window?)" >&2
  cat "$WORKDIR/coordA.log" >&2
  exit 1
}
grep -q "match the shard-local reference record for record: OK" "$WORKDIR/coordA.log" || {
  echo "FAIL: post-recovery records not verified" >&2
  cat "$WORKDIR/coordA.log" >&2
  exit 1
}
grep -E "re-joined|shard loss|records" "$WORKDIR/coordA.log"
pkill -P $$ 2>/dev/null || true
sleep 0.3

echo "== scenario B: coordinator kill + resume =="
CKPT="$WORKDIR/ckpt"
"$TRIMLAB" worker -listen "127.0.0.1:$PORT0" -id 0 >"$WORKDIR/w0b.log" 2>&1 &
"$TRIMLAB" worker -listen "127.0.0.1:$PORT1" -id 1 >"$WORKDIR/w1c.log" 2>&1 &
"$TRIMLAB" coordinator -workers "127.0.0.1:$PORT0,127.0.0.1:$PORT1" \
  -checkpoint-dir "$CKPT" -checkpoint-every 10 -rounds "$ROUNDS" -batch "$BATCH" -seed "$SEED" \
  -obs-addr "127.0.0.1:$OBS_PORT_B" $COORD_FLAGS \
  >"$WORKDIR/coordB1.log" 2>&1 &
COORD_PID=$!
wait_round "http://127.0.0.1:$OBS_PORT_B" "$COORD_PID" "scenario B" || { cat "$WORKDIR/coordB1.log" >&2; exit 1; }
# A checkpoint lands every 10 rounds; wait for the first file too.
for i in $(seq 1 100); do
  ls "$CKPT"/checkpoint-*.tq >/dev/null 2>&1 && break
  kill -0 "$COORD_PID" 2>/dev/null || break
  sleep 0.1
done
kill -9 "$COORD_PID" 2>/dev/null || {
  echo "FAIL: scenario B: the coordinator exited before the kill" >&2
  cat "$WORKDIR/coordB1.log" >&2
  exit 1
}
wait "$COORD_PID" 2>/dev/null || true
ls "$CKPT"/checkpoint-*.tq >/dev/null 2>&1 || {
  echo "FAIL: no checkpoints written before the coordinator was killed" >&2
  cat "$WORKDIR/coordB1.log" >&2
  exit 1
}
# The workers survive the dead coordinator; the resumed one redials them.
if ! "$TRIMLAB" coordinator -workers "127.0.0.1:$PORT0,127.0.0.1:$PORT1" \
  -checkpoint-dir "$CKPT" -resume -rounds "$ROUNDS" -batch "$BATCH" -seed "$SEED" $COORD_FLAGS \
  >"$WORKDIR/coordB2.log" 2>&1; then
  echo "FAIL: resumed coordinator exited non-zero" >&2
  cat "$WORKDIR/coordB2.log" >&2
  exit 1
fi
grep -q "resuming from" "$WORKDIR/coordB2.log" || {
  echo "FAIL: coordinator did not resume from a checkpoint" >&2
  cat "$WORKDIR/coordB2.log" >&2
  exit 1
}
grep -q "board matches the single-process shard-local reference record for record: OK" "$WORKDIR/coordB2.log" || {
  echo "FAIL: resumed board not verified against the reference" >&2
  cat "$WORKDIR/coordB2.log" >&2
  exit 1
}
grep -E "resuming|matches" "$WORKDIR/coordB2.log"
pkill -P $$ 2>/dev/null || true
sleep 0.3

echo "== scenario C: mid-tree aggregator kill + re-join =="
AGG_PORT0="${AGG_PORT0:-7404}"
AGG_PORT1="${AGG_PORT1:-7405}"
LEAF_BASE="${LEAF_BASE:-7411}"
KIDS0="" KIDS1=""
for i in $(seq 0 7); do
  "$TRIMLAB" worker -listen "127.0.0.1:$((LEAF_BASE + i))" -id "$i" >"$WORKDIR/leaf$i.log" 2>&1 &
  if [ "$i" -lt 4 ]; then
    KIDS0="$KIDS0${KIDS0:+,}127.0.0.1:$((LEAF_BASE + i))"
  else
    KIDS1="$KIDS1${KIDS1:+,}127.0.0.1:$((LEAF_BASE + i))"
  fi
done
"$TRIMLAB" aggregator -listen "127.0.0.1:$AGG_PORT0" -id 0 -children "$KIDS0" >"$WORKDIR/agg0.log" 2>&1 &
"$TRIMLAB" aggregator -listen "127.0.0.1:$AGG_PORT1" -id 1 -children "$KIDS1" >"$WORKDIR/agg1.log" 2>&1 &
AGG1_PID=$!
"$TRIMLAB" coordinator -workers "127.0.0.1:$AGG_PORT0,127.0.0.1:$AGG_PORT1" \
  -rejoin -heartbeat 100ms -rounds "$ROUNDS" -batch "$BATCH" -seed "$SEED" \
  -obs-addr "127.0.0.1:$OBS_PORT_C" $COORD_FLAGS \
  >"$WORKDIR/coordC.log" 2>&1 &
COORD_PID=$!
wait_round "http://127.0.0.1:$OBS_PORT_C" "$COORD_PID" "scenario C" || { cat "$WORKDIR/coordC.log" >&2; exit 1; }
kill -9 "$AGG1_PID"
sleep 0.5
# The subtree's workers survived the dead aggregator; the re-spawned one
# re-dials them and re-joins the game on the old address.
"$TRIMLAB" aggregator -listen "127.0.0.1:$AGG_PORT1" -id 1 -children "$KIDS1" -rejoin \
  >"$WORKDIR/agg1b.log" 2>&1 &
if ! wait "$COORD_PID"; then
  echo "FAIL: coordinator exited non-zero after the aggregator kill/re-join" >&2
  cat "$WORKDIR/coordC.log" >&2
  exit 1
fi
grep -q "merge topology: 8 leaves behind 2 slots, height 1" "$WORKDIR/coordC.log" || {
  echo "FAIL: coordinator never reported the 8-leaf/2-slot tree topology" >&2
  cat "$WORKDIR/coordC.log" >&2
  exit 1
}
# Killing one aggregator loses its whole 4-leaf subtree, charged per leaf.
LOSSES="$(grep -c "shard loss: round" "$WORKDIR/coordC.log" || true)"
if [ "$LOSSES" -lt 4 ]; then
  echo "FAIL: expected >=4 per-leaf shard losses from the dead subtree, saw $LOSSES" >&2
  cat "$WORKDIR/coordC.log" >&2
  exit 1
fi
grep -q "re-joined" "$WORKDIR/coordC.log" || {
  echo "FAIL: the re-spawned aggregator never re-joined" >&2
  cat "$WORKDIR/coordC.log" >&2
  exit 1
}
grep -q "match the shard-local reference record for record: OK" "$WORKDIR/coordC.log" || {
  echo "FAIL: post-recovery records not verified against the flat reference" >&2
  cat "$WORKDIR/coordC.log" >&2
  exit 1
}
grep -E "merge topology|re-joined|shard loss: round 2|records" "$WORKDIR/coordC.log"

echo "chaos smoke: OK"

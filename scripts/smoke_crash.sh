#!/usr/bin/env bash
# smoke_crash.sh — crash-durability smoke: boot stmkvd with -durability
# group, drive open-loop traffic over BOTH wire surfaces (HTTP and the
# pipelined binary protocol) plus a tracker that records every PUT the
# server ACKED, kill -9 the daemon mid-run, restart it on the same WAL
# directory, and assert (a) every acked write is readable again — zero
# acked-write loss, (b) /stats shows the recovery actually replayed the
# log and counted no torn bytes (a kill -9 loses no write the kernel took:
# what the dead server's last segment ends in is its reservation, zeros,
# and that is not damage), and (c) both load generators rode through the
# outage on their retry policies, each with its retry budget denying at
# least one retry. The binary leg matters for durability: a pipelined connection
# must never see an ack before the commit's WAL ticket resolves, and the
# restart proves acked pipelined writes were really on disk. CI runs this
# on every push; locally: ./scripts/smoke_crash.sh [bindir]
set -euo pipefail

BIN="${1:-bin}"
WAL="$(mktemp -d)"
LOG="$(mktemp)"
GENLOG="$(mktemp)"
BGENLOG="$(mktemp)"
ACKED="$(mktemp)"

# First boot binds ephemeral ports; parse_addrs pins them so the restart
# reuses the same concrete addresses (the generators retry against them).
HTTP_ADDR="127.0.0.1:0"
PROTO_ADDR="127.0.0.1:0"

start_server() {
  "$BIN/stmkvd" -addr "$HTTP_ADDR" -proto-addr "$PROTO_ADDR" \
    -durability group -wal-dir "$WAL" \
    -period 200ms -samples 1 >>"$LOG" 2>&1 &
  SRV=$!
}

parse_addrs() {
  for i in $(seq 1 100); do
    HTTP_ADDR="$(sed -n 's/^stmkvd: http listening on //p' "$LOG" | head -1)"
    PROTO_ADDR="$(sed -n 's/^stmkvd: proto listening on //p' "$LOG" | head -1)"
    if [ -n "$HTTP_ADDR" ] && [ -n "$PROTO_ADDR" ]; then
      BASE="http://$HTTP_ADDR"
      return 0
    fi
    if ! kill -0 "$SRV" 2>/dev/null; then
      echo "stmkvd died at startup"; cat "$LOG"; exit 1
    fi
    sleep 0.1
  done
  echo "server never logged its bound addresses"; cat "$LOG"; exit 1
}

wait_ready() {
  for i in $(seq 1 100); do
    if curl -sf "$BASE/readyz" >/dev/null 2>&1; then return 0; fi
    if ! kill -0 "$SRV" 2>/dev/null; then
      echo "stmkvd died at startup"; cat "$LOG"; exit 1
    fi
    sleep 0.1
  done
  echo "server never became ready"; cat "$LOG"; exit 1
}

# state_metric reads the one-hot stmkvd_durability_state gauge from
# /metrics (admitted in every lifecycle state) and prints the active
# state's label.
state_metric() {
  curl -sf "$BASE/metrics" \
    | sed -n 's/^stmkvd_durability_state{state="\([a-z]*\)"} 1$/\1/p'
}

start_server
trap 'kill -9 $SRV 2>/dev/null || true; cat "$LOG"' EXIT
parse_addrs
wait_ready

ST="$(state_metric)"
[ "$ST" = "ready" ] || { echo "durability-state metric is '$ST' pre-kill, want ready"; exit 1; }

# Open-loop load in the background; its capped-backoff retry window
# (~15s) is what lets the same run span the kill and the restart.
"$BIN/stmkv-loadgen" -addr "$BASE" -rate 1000 -duration 8s -workers 8 \
  -keys 1024 -theta 0.9 -min-ops 3000 >"$GENLOG" 2>&1 &
GEN=$!

# Same shape over the pipelined binary protocol: an update's answer on
# this connection is only written once the commit's WAL ticket has
# resolved (by the flusher, or by the holder of a ticket already resolved)
# — so every completed op here was durable before its response frame was
# written.
"$BIN/stmkv-loadgen" -addr "$PROTO_ADDR" -proto binary -conns 2 \
  -rate 1000 -duration 8s -workers 8 \
  -keys 1024 -theta 0.9 -min-ops 3000 >"$BGENLOG" 2>&1 &
BGEN=$!

# Tracker: sequential PUTs in a keyspace far above the generator's. A key
# is recorded as acked only AFTER its 200 came back, so the recorded set
# is exactly what -durability group promised to keep.
(
  i=0
  while :; do
    k=$((9000000000 + i))
    v=$((i * 3 + 1))
    if curl -sf -X PUT "$BASE/kv/$k" -d "$v" >/dev/null 2>&1; then
      echo "$k $v" >>"$ACKED"
    fi
    i=$((i + 1))
  done
) &
TRK=$!

# Let writes accumulate, then kill -9: no shutdown path, no final flush.
sleep 2
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
sleep 0.5 # in-flight tracker request fails; its ack was never recorded
kill "$TRK" 2>/dev/null || true
wait "$TRK" 2>/dev/null || true

N_ACKED="$(wc -l <"$ACKED")"
if [ "$N_ACKED" -lt 10 ]; then
  echo "tracker recorded only $N_ACKED acked writes before the kill"; exit 1
fi

start_server
parse_restart_state() {
  # Right after the restart the metric must read a legal boot state —
  # starting (mid-replay) or ready (replay won the race) — never
  # degraded/failed/empty; after wait_ready it must be exactly ready.
  for i in $(seq 1 100); do
    ST="$(state_metric || true)"
    if [ -n "$ST" ]; then
      case "$ST" in
        starting|ready) return 0 ;;
        *) echo "durability-state metric is '$ST' during restart"; exit 1 ;;
      esac
    fi
    if ! kill -0 "$SRV" 2>/dev/null; then
      echo "stmkvd died at restart"; cat "$LOG"; exit 1
    fi
    sleep 0.1
  done
  echo "/metrics never served a durability state during restart"; exit 1
}
parse_restart_state
wait_ready
ST="$(state_metric)"
[ "$ST" = "ready" ] || { echo "durability-state metric is '$ST' after recovery, want ready"; exit 1; }

# (a) Zero acked-write loss: every recorded ack is served with its value.
while read -r k v; do
  GOT="$(curl -sf "$BASE/kv/$k")" || { echo "acked key $k lost after crash"; exit 1; }
  case "$GOT" in
    *"\"val\":$v"*) ;;
    *) echo "acked key $k: wrote $v, got $GOT"; exit 1 ;;
  esac
done <"$ACKED"

# (c) Both generators outlived the restart on retries alone.
wait "$GEN" || { echo "HTTP loadgen failed across the restart:"; cat "$GENLOG"; exit 1; }
grep -Eo 'retries=[0-9]+' "$GENLOG" | grep -qv 'retries=0$' \
  || { echo "HTTP loadgen reports zero retries — did the kill land mid-run?"; cat "$GENLOG"; exit 1; }
wait "$BGEN" || { echo "binary loadgen failed across the restart:"; cat "$BGENLOG"; exit 1; }
grep -Eo 'retries=[0-9]+' "$BGENLOG" | grep -qv 'retries=0$' \
  || { echo "binary loadgen reports zero retries — did the kill land mid-run?"; cat "$BGENLOG"; exit 1; }
# The retry budget is what stops a client from turning an outage into a
# retry storm, and the kill is the outage: each generator must have run
# its bucket dry, so its summary line reports denied >= 1.
for GL in "$GENLOG" "$BGENLOG"; do
  DENIED="$(sed -n 's/.*retry-budget .* denied=\([0-9]*\)$/\1/p' "$GL" | head -1)"
  [ "${DENIED:-0}" -ge 1 ] \
    || { echo "retry budget denied no retry across the kill:"; cat "$GL"; exit 1; }
done

# (b) /stats tells the recovery story; /metrics counts the traffic.
STATS="$(curl -sf "$BASE/stats")"
METRICS="$(curl -sf "$BASE/metrics")"
python3 - "$STATS" "$METRICS" "$N_ACKED" <<'PY'
import json, sys
stats, metrics, n_acked = json.loads(sys.argv[1]), sys.argv[2], int(sys.argv[3])

def sample(series):
    for line in metrics.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"series {series} missing from /metrics")

d = stats["durability"]
assert d["mode"] == "group", f"mode {d['mode']}"
assert d["state"] == "ready", f"state {d['state']}"
rec = d["recovery"]
assert rec["records"] >= n_acked, f"replayed {rec['records']} records < {n_acked} acked"
assert "error" not in rec, f"recovery error: {rec}"
assert rec["torn_bytes"] == 0, f"recovery read {rec['torn_bytes']} torn bytes after a plain kill -9: {rec}"
ops, bad = sample("stmkvd_proto_ops_total"), sample("stmkvd_proto_bad_frames_total")
assert ops > 0, "no binary-protocol ops reached the restarted server"
assert bad == 0, f"binary listener saw {bad:.0f} malformed frames"
print(f"crash smoke ok: {n_acked} acked tracker writes survived kill -9; "
      f"recovery replayed {rec['records']} records / {rec['ops']} ops "
      f"(torn_bytes={rec['torn_bytes']}, checkpoint_found={rec['checkpoint_found']}); "
      # Printed, not asserted: the filesystem under $WAL may refuse fallocate.
      f"wal preallocated={sample('stmkvd_wal_preallocated') == 1}")
PY
cat "$GENLOG"
cat "$BGENLOG"

kill "$SRV"
wait "$SRV" 2>/dev/null || true
trap - EXIT
rm -rf "$WAL"

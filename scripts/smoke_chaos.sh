#!/usr/bin/env bash
# smoke_chaos.sh — resilience end-to-end smoke under injected network
# faults. Boots a durable stmkvd behind two netchaos proxies (binary
# traffic through byte corruption + resets + a timed blackout window;
# HTTP writes through connection resets) and asserts the whole
# resilience stack held:
#
#   1. zero acked-write loss: every HTTP write acked through the chaos
#      proxy reads back with the right value afterwards;
#   2. retries are bounded by the shared retry budget (every retry the
#      loadgen performed was granted by the budget, none snuck past);
#   3. the circuit breaker ran at least one full open -> half-open ->
#      closed cycle over the blackout;
#   4. a deadline-expired request is never admitted to a worker: the
#      shed-by-stage counters on /metrics show the gate refusing them;
#   5. the desync kill-path fired: injected corruption produced at least
#      one bad frame, and the server dropped only those connections.
#   6. /stats has exactly its frozen top-level sections.
#
# CI runs this on every push; locally: ./scripts/smoke_chaos.sh [bindir]
set -euo pipefail

BIN="${1:-bin}"
LOG="$(mktemp)"
GENLOG="$(mktemp)"
CHAOSP="$(mktemp)"
CHAOSH="$(mktemp)"
WALDIR="$(mktemp -d)"

"$BIN/stmkvd" -addr 127.0.0.1:0 -proto-addr 127.0.0.1:0 \
  -admission 1 \
  -durability group -wal-dir "$WALDIR" -wal-batch 25ms \
  -period 150ms -samples 1 \
  -geometry 2^16,0,1 >"$LOG" 2>&1 &
SRV=$!
PROXY_PIDS=""
trap 'kill $SRV $PROXY_PIDS 2>/dev/null || true; cat "$LOG"' EXIT

HTTP_ADDR=""
PROTO_ADDR=""
for i in $(seq 1 100); do
  HTTP_ADDR="$(sed -n 's/^stmkvd: http listening on //p' "$LOG" | head -1)"
  PROTO_ADDR="$(sed -n 's/^stmkvd: proto listening on //p' "$LOG" | head -1)"
  if [ -n "$HTTP_ADDR" ] && [ -n "$PROTO_ADDR" ]; then break; fi
  if ! kill -0 $SRV 2>/dev/null; then echo "stmkvd died at startup"; exit 1; fi
  sleep 0.1
done
[ -n "$HTTP_ADDR" ] && [ -n "$PROTO_ADDR" ] \
  || { echo "server never logged its bound addresses"; exit 1; }
BASE="http://$HTTP_ADDR"

for i in $(seq 1 100); do
  if curl -sf "$BASE/readyz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $SRV 2>/dev/null; then echo "stmkvd died at startup"; exit 1; fi
  sleep 0.1
done
curl -sf "$BASE/readyz" >/dev/null

# Chaos proxy in front of the binary listener: a byte flipped every ~32KiB
# per direction (CRC kill-path fodder), a reset every ~256KiB, and a full
# 1s blackout starting 3s in — the breaker-cycle window.
"$BIN/netchaos" -target "$PROTO_ADDR" -seed 7 \
  -corrupt-every 32768 -reset-every 262144 \
  -blackout-at 3s -blackout-for 1s >"$CHAOSP" 2>&1 &
PROXY_PIDS="$PROXY_PIDS $!"
# Chaos proxy in front of HTTP: frequent connection resets for the
# acked-write-loss check (threshold ~[300,900) bytes, around one request).
"$BIN/netchaos" -target "$HTTP_ADDR" -seed 11 -reset-every 600 >"$CHAOSH" 2>&1 &
PROXY_PIDS="$PROXY_PIDS $!"

PROTO_PROXY=""
HTTP_PROXY_ADDR=""
for i in $(seq 1 100); do
  PROTO_PROXY="$(sed -n 's/^netchaos: netchaos listening on \([^ ]*\).*/\1/p' "$CHAOSP" | head -1)"
  HTTP_PROXY_ADDR="$(sed -n 's/^netchaos: netchaos listening on \([^ ]*\).*/\1/p' "$CHAOSH" | head -1)"
  if [ -n "$PROTO_PROXY" ] && [ -n "$HTTP_PROXY_ADDR" ]; then break; fi
  sleep 0.1
done
[ -n "$PROTO_PROXY" ] && [ -n "$HTTP_PROXY_ADDR" ] \
  || { echo "netchaos never logged its bound addresses"; cat "$CHAOSP" "$CHAOSH"; exit 1; }

# Pipelined binary load through the chaos proxy. Read-heavy (the width-1
# group-commit gate serializes updates at ~40/s) with per-op deadlines,
# a shared retry budget and an aggressive breaker so the blackout trips
# a full cycle.
"$BIN/stmkv-loadgen" -addr "$PROTO_PROXY" -proto binary -conns 4 \
  -rate 2000 -duration 6s -workers 16 -keys 512 -theta 0.7 \
  -read 97 -cas 0 -batch 0 \
  -op-timeout 1s -retry-tokens 64 -retry-attempts 6 \
  -breaker-threshold 3 -breaker-cooldown 300ms \
  -min-ops 5000 >"$GENLOG" 2>&1 \
  || { echo "chaos loadgen failed:"; cat "$GENLOG"; exit 1; }
cat "$GENLOG"

RETRIES="$(sed -n 's/.* retries=\([0-9]*\)$/\1/p' "$GENLOG" | head -1)"
ALLOWED="$(sed -n 's/.*allowed=\([0-9]*\) denied=.*/\1/p' "$GENLOG" | head -1)"
DENIED="$(sed -n 's/.*denied=\([0-9]*\)$/\1/p' "$GENLOG" | head -1)"
OPENS="$(sed -n 's/.*breaker opens=\([0-9]*\) .*/\1/p' "$GENLOG" | head -1)"
CLOSES="$(sed -n 's/.*closes=\([0-9]*\) state=.*/\1/p' "$GENLOG" | head -1)"
[ -n "$RETRIES" ] && [ -n "$ALLOWED" ] && [ -n "$OPENS" ] && [ -n "$CLOSES" ] \
  || { echo "loadgen summary missing resilience lines"; exit 1; }
[ "$RETRIES" -ge 1 ] || { echo "chaos run finished without a single retry"; exit 1; }
# Bounded by budget: every retry performed was granted by the shared
# bucket — the retrier never retries past a denial.
[ "$RETRIES" -eq "$ALLOWED" ] \
  || { echo "retries ($RETRIES) != budget grants ($ALLOWED): retries escaped the budget"; exit 1; }
[ "$OPENS" -ge 1 ] || { echo "breaker never opened over a 1s blackout"; exit 1; }
[ "$CLOSES" -ge 1 ] || { echo "breaker opened but never closed: no full cycle"; exit 1; }
echo "breaker cycle ok: opens=$OPENS closes=$CLOSES retries=$RETRIES (denied=$DENIED)"

# Let the gate backlog drain.
sleep 2

# Acked-write-loss check: 60 writes through the resetting HTTP proxy,
# each retried until acked (200). Afterwards every acked key must read
# back with its exact value DIRECTLY from the server.
ACKED=""
for k in $(seq 1 60); do
  v=$((1000 + k))
  for attempt in $(seq 1 10); do
    code="$(curl -s -o /dev/null -w '%{http_code}' -m 2 \
      -X PUT -d "$v" "http://$HTTP_PROXY_ADDR/kv/$k" 2>/dev/null || echo 000)"
    if [ "$code" = "200" ]; then ACKED="$ACKED $k"; break; fi
    sleep 0.05
  done
done
NACKED=$(echo "$ACKED" | wc -w)
[ "$NACKED" -ge 40 ] \
  || { echo "only $NACKED/60 writes acked through chaos; proxy too hostile to test loss"; exit 1; }
LOST=0
for k in $ACKED; do
  v=$((1000 + k))
  got="$(curl -sf "$BASE/kv/$k" | sed -n 's/.*"val":\([0-9]*\).*/\1/p')"
  if [ "$got" != "$v" ]; then
    echo "ACKED WRITE LOST: key $k acked val $v, reads back '${got:-missing}'"
    LOST=$((LOST + 1))
  fi
done
[ "$LOST" -eq 0 ] || { echo "$LOST acked writes lost"; exit 1; }
echo "acked-write loss ok: $NACKED/60 acked through resets, 0 lost"

# Deadline shedding: keep the width-1 gate busy, then send writes with a
# 1ms budget — they must be refused at the gate, never executed. The gate
# is held for the length of a transaction, not of its fsync (the slot goes
# back at commit), so what keeps it busy is transactions: 128 pipelined
# writers of 1024-key atomic batches, straight at the binary port, queue
# tens of milliseconds of work in front of it.
"$BIN/stmkv-loadgen" -proto binary -addr "$PROTO_ADDR" -conns 2 -workers 128 \
  -rate 20000 -duration 3s -keys 4096 -preload=false \
  -read 0 -cas 0 -batch 100 -batch-size 1024 >/dev/null 2>&1 &
FLOOD=$!
sleep 0.5
SHED=0
for i in $(seq 1 40); do
  code="$(curl -s -o /dev/null -w '%{http_code}' \
    -H 'X-Timeout-Ms: 1' -X PUT -d 1 "$BASE/kv/8$i")"
  [ "$code" = "504" ] && SHED=$((SHED + 1))
done
wait $FLOOD || true
[ "$SHED" -ge 1 ] || { echo "no 1ms-budget write was shed at the busy gate"; exit 1; }

METRICS="$(curl -sf "$BASE/metrics")"
STATS="$(curl -sf "$BASE/stats")"
python3 - "$STATS" "$METRICS" <<'PY'
import json, sys
stats = json.loads(sys.argv[1])
metrics = sys.argv[2]

def sample(series):
    for line in metrics.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"series {series} missing from /metrics")

gate = sample('stmkvd_deadline_shed_total{stage="gate",surface="http"}')
assert gate >= 1, f"no gate-stage deadline sheds on /metrics: {gate}"
assert sample("stmkvd_admission_expired_total") >= 1, "gate never counted an expired claim"
# /stats has exactly its frozen top-level sections.
sections = {"design", "params", "snapshots", "durability", "admission", "proto"}
assert set(stats) == sections, f"/stats sections changed: {sorted(set(stats) ^ sections)}"
bad = sample("stmkvd_proto_bad_frames_total")
assert bad >= 1, f"corruption injected but no bad frame counted: {bad}"
shed = {surf: {stage: int(sample(f'stmkvd_deadline_shed_total{{stage="{stage}",surface="{surf}"}}'))
               for stage in ("dequeue", "gate", "op")} for surf in ("http", "proto")}
print(f"chaos smoke ok: deadline sheds http={shed['http']} proto={shed['proto']}, "
      f"bad_frames={bad:.0f}")
PY

kill $SRV $PROXY_PIDS 2>/dev/null || true
wait $SRV 2>/dev/null || true
trap - EXIT

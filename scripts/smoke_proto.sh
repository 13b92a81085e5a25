#!/usr/bin/env bash
# smoke_proto.sh — binary-protocol end-to-end smoke: boot stmkvd with the
# kvproto listener behind a 32-wide admission gate, drive pipelined
# open-loop traffic through stmkv-loadgen -proto binary with a mid-run
# phase shift (calm read-heavy -> hot-key write-heavy), and assert that
# (a) the gate admitted the updates and is still 32 wide, with no key of
# the removed admission controller on /tuning, and (b) the binary
# listener served the whole run with zero protocol-level errors and zero
# malformed frames (/metrics). CI runs this
# on every push; locally: ./scripts/smoke_proto.sh [bindir]
set -euo pipefail

BIN="${1:-bin}"
LOG="$(mktemp)"
GENLOG="$(mktemp)"

# Ephemeral ports on both surfaces; the concrete addresses are parsed
# from the daemon's log.
"$BIN/stmkvd" -addr 127.0.0.1:0 -proto-addr 127.0.0.1:0 \
  -admission 32 -period 150ms -samples 1 -geometry 2^16,0,1 >"$LOG" 2>&1 &
SRV=$!
trap 'kill $SRV 2>/dev/null || true; cat "$LOG"' EXIT

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

for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $SRV 2>/dev/null; then echo "stmkvd died at startup"; exit 1; fi
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null

# Pipelined binary load with a phase shift: the first half is read-heavy
# and lightly skewed, the second half is a hot-key write storm that
# queues updates at the gate. The width is fixed at boot: whatever the
# traffic does, it must still be 32 at the end.
"$BIN/stmkv-loadgen" -addr "$PROTO_ADDR" -proto binary -conns 4 \
  -rate 4000 -duration 6s -workers 24 \
  -keys 2048 -theta 0.7 -read 90 -shift -read2 5 -theta2 0.99 \
  -min-ops 10000 >"$GENLOG" 2>&1 &
GEN=$!

wait $GEN || { echo "binary loadgen failed:"; cat "$GENLOG"; exit 1; }
cat "$GENLOG"

TUNING="$(curl -sf "$BASE/tuning")"
STATS="$(curl -sf "$BASE/stats")"
METRICS="$(curl -sf "$BASE/metrics")"
python3 - "$TUNING" "$STATS" "$METRICS" <<'PY'
import json, sys
tuning, stats, metrics = json.loads(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]

def sample(series):
    for line in metrics.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"series {series} missing from /metrics")

assert tuning["enabled"] and tuning["running"], "tuning runtime not running"
gone = [k for k in ("admission_tuning", "admission_moves") if k in tuning]
gone += [k for ev in tuning["events"] for k in ("adm_width", "next_adm_width", "adm_err") if k in ev]
assert not gone, f"/tuning still carries removed admission-controller keys: {sorted(set(gone))}"
assert stats["admission"]["enabled"], f"admission gate not live: {stats['admission']}"
width = sample("stmkvd_admission_width")
assert width == 32, f"admission width moved from 32: {width}"
admitted, waited = sample("stmkvd_admission_admitted_total"), sample("stmkvd_admission_waited_total")
assert admitted > 0, "no update transactions passed the gate"
ops, err_ops = sample("stmkvd_proto_ops_total"), sample("stmkvd_proto_err_ops_total")
bad_frames = sample("stmkvd_proto_bad_frames_total")
assert ops >= 10000, f"binary listener served only {ops:.0f} ops"
assert err_ops == 0, f"binary listener answered {err_ops:.0f} errors"
assert bad_frames == 0, f"binary listener saw {bad_frames:.0f} malformed frames"
print(f"proto smoke ok: {ops:.0f} pipelined ops over "
      f"{sample('stmkvd_proto_accepted_total'):.0f} conns, "
      f"0 protocol errors; admission width {width:.0f} "
      f"({admitted:.0f} admitted, {waited:.0f} waited)")
PY

kill $SRV
wait $SRV 2>/dev/null || true
trap - EXIT

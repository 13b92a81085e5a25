#!/usr/bin/env bash
# smoke_server.sh — end-to-end service smoke: boot stmkvd with a fast
# tuning cadence, drive >= 10k operations of open-loop Zipf traffic with a
# mid-run phase shift through stmkv-loadgen, and assert that the live
# autotuner actually reconfigured the TM at least once and that the store
# served the traffic (/metrics). CI runs this on every push; it is
# also runnable locally: ./scripts/smoke_server.sh [bindir]
set -euo pipefail

BIN="${1:-bin}"
LOG="$(mktemp)"

# The server runs write-back and samples its flight recorder at a fixed
# rate: -design and -txtrace are unknown flags, which the flag package
# refuses with exit status 2 before anything starts.
refused() {
  local code=0
  timeout 10 "$BIN/stmkvd" -addr 127.0.0.1:0 "$@" >/dev/null 2>&1 || code=$?
  [ "$code" -eq 2 ] || { echo "stmkvd $* exited $code, want 2 (unknown flag)"; exit 1; }
}
refused -design wt
refused -txtrace 1

# Ephemeral port: the daemon binds :0 and logs the concrete address, so
# parallel CI jobs (and local runs next to a real server) never collide.
"$BIN/stmkvd" -addr 127.0.0.1:0 -period 200ms -samples 1 -geometry 2^8,0,1 >"$LOG" 2>&1 &
SRV=$!
trap 'kill $SRV 2>/dev/null || true; cat "$LOG"' EXIT

ADDR=""
for i in $(seq 1 100); do
  ADDR="$(sed -n 's/^stmkvd: http listening on //p' "$LOG" | head -1)"
  if [ -n "$ADDR" ]; then break; fi
  if ! kill -0 $SRV 2>/dev/null; then echo "stmkvd died at startup"; exit 1; fi
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never logged its bound address"; exit 1; }
BASE="http://$ADDR"

# Wait for the server to come up.
for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $SRV 2>/dev/null; then echo "stmkvd died at startup"; exit 1; fi
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null

# Open-loop load: 3000 req/s for 5s with a phase shift = 15k scheduled
# arrivals; -min-ops makes the generator itself fail below 10k completions.
# The generator runs in the background so read-only snapshot traffic —
# full-table /scan and all-Get /batch — can be driven AGAINST the
# phase-shifting write load; every one of those reads must be answered
# (the MVCC sidecar serves them wait-free; a snapshot that outlives its
# versions is retried inside the server, never surfaced).
"$BIN/stmkv-loadgen" -addr "$BASE" -rate 3000 -duration 5s -workers 16 \
  -keys 2048 -theta 0.9 -shift -min-ops 10000 &
GEN=$!

SCANS=0
BATCHES=0
for i in $(seq 1 40); do
  SCAN="$(curl -sf "$BASE/scan?limit=8")" || { echo "/scan failed"; exit 1; }
  case "$SCAN" in *'"snapshot":true'*) SCANS=$((SCANS+1));; esac
  BATCH="$(curl -sf -X POST "$BASE/batch" -d \
    '{"ops":[{"op":"get","key":1},{"op":"get","key":2},{"op":"get","key":3},{"op":"get","key":4}]}')" \
    || { echo "/batch failed"; exit 1; }
  case "$BATCH" in *'"results"'*) BATCHES=$((BATCHES+1));; esac
  sleep 0.1
done

# Scrape /metrics while the generator is still loading the server: the
# exposition must be well-formed text format with a live commit counter
# and request-latency bucket series (histograms recorded on the hot path,
# rendered under load).
METRICS="$(curl -sf "$BASE/metrics")" || { echo "/metrics failed"; exit 1; }
python3 - "$METRICS" <<'PY'
import sys
body = sys.argv[1]
commits = None
latency_buckets = 0
for line in body.splitlines():
    if not line or line.startswith("#"):
        continue
    series, _, value = line.rpartition(" ")
    assert series and value, f"malformed exposition line: {line!r}"
    float(value)  # every sample value must parse
    if series == "stm_commits_total":
        commits = float(value)
    if series.startswith("stmkvd_request_seconds_bucket{"):
        assert 'le="' in series, f"bucket series without le label: {line!r}"
        latency_buckets += 1
assert commits is not None and commits > 0, f"stm_commits_total missing or zero: {commits}"
assert latency_buckets > 0, "no stmkvd_request_seconds bucket series in exposition"
print(f"metrics ok mid-load: {int(commits)} commits, {latency_buckets} latency bucket series")
PY

wait $GEN

# The autotuner must have moved the live geometry at least once, and every
# snapshot read driven above must have been answered (counted in the loop:
# curl -f fails the script on a non-200). Snapshot-too-old aborts are NOT
# failures: a too-old abort is retried inside the server. What must hold
# is that they stay rare (<= 1% of snapshot reads). The counts come from
# /metrics; /stats says what the server is, /tuning what the tuner did.
TUNING="$(curl -sf "$BASE/tuning")"
STATS="$(curl -sf "$BASE/stats")"
METRICS="$(curl -sf "$BASE/metrics")"
FINAL_SCAN="$(curl -sf "$BASE/scan?limit=4")"
python3 - "$TUNING" "$STATS" "$METRICS" "$FINAL_SCAN" "$SCANS" "$BATCHES" <<'PY'
import json, sys
tuning, stats, metrics = json.loads(sys.argv[1]), json.loads(sys.argv[2]), sys.argv[3]
scan, scans, batches = json.loads(sys.argv[4]), int(sys.argv[5]), int(sys.argv[6])

def sample(series):
    for line in metrics.splitlines():
        if line.startswith(series + " "):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"series {series} missing from /metrics")

assert tuning["enabled"] and tuning["running"], "tuning runtime not running"
reconfigs, commits = sample("stm_reconfigs_total"), sample("stm_commits_total")
assert reconfigs >= 1, f"TM never reconfigured: stm_reconfigs_total={reconfigs}"
assert commits >= 10000, f"too few commits: {commits}"
assert len(tuning["events"]) >= 5, f"trace too short: {len(tuning['events'])} events"
assert scans >= 30, f"only {scans} snapshot scans completed under load"
assert batches >= 30, f"only {batches} all-Get batches completed under load"
assert stats["snapshots"]["enabled"], f"snapshots not enabled: {stats['snapshots']}"
assert stats["design"] == "WB", f"design {stats['design']!r}, want 'WB'"
live, sidecar = sample("stm_snapshot_reads_live_total"), sample("stm_snapshot_reads_sidecar_total")
reads, too_old = live + sidecar, sample("stm_snapshot_too_old_total")
assert reads > 0, "no snapshot reads recorded"
assert too_old * 100 <= reads, f"{too_old:.0f} too-old aborts over {reads:.0f} snapshot reads (> 1%)"
assert scan["keys"] >= 1000, f"final scan saw only {scan['keys']} keys"
print(f"smoke ok: {commits:.0f} commits, {reconfigs:.0f} reconfigs, "
      f"{len(tuning['events'])} tuning periods, final geometry {stats['params']}, "
      f"{scans} scans + {batches} ro-batches answered under load "
      f"({live:.0f} live + {sidecar:.0f} sidecar snapshot reads, "
      f"{too_old:.0f} too-old retries)")
PY

kill $SRV
wait $SRV 2>/dev/null || true
trap - EXIT

#!/usr/bin/env bash
# Single lint entry point, identical locally (`make lint`) and in CI:
# gofmt, go vet, the repo's own stmlint analyzers, and staticcheck when
# it is installed (CI installs a pinned version; locally it is optional
# because this repo builds offline).
set -u
cd "$(dirname "$0")/.."

fail=0

out="$(gofmt -l .)"
if [ -n "$out" ]; then
  echo "gofmt needed on:"
  echo "$out"
  fail=1
fi

go vet ./... || fail=1

# stmlint: static enforcement of the STM's transactional invariants
# (see README "Static analysis"). Covers every package in the module,
# including examples/ and cmd/.
go run ./cmd/stmlint ./... || fail=1

# Layering: the store is a library on core, under the server. The
# benchmark harness drives it from above; the comparison STM (tl2), the
# wire codec, the log, the server and the tuner sit beside or above it.
# None of them is one of its dependencies.
kvdeps="$(go list -deps ./internal/kvstore)"
for pkg in harness tl2 kvproto wal kvserver tuning; do
  if grep -qx "tinystm/internal/$pkg" <<<"$kvdeps"; then
    echo "layering: internal/kvstore depends on internal/$pkg"
    fail=1
  fi
done

# Layering: the figure runners measure the STM in process; the server and
# its client are measured by the ledger (bench/) against a live stmkvd.
for pkg in kvserver kvclient; do
  if go list -deps ./internal/experiments | grep -qx "tinystm/internal/$pkg"; then
    echo "layering: internal/experiments depends on internal/$pkg"
    fail=1
  fi
done

# Layering: the server is not a figure runner. stmkvd links none of the
# reproduction layer (the figure sweeps, their harness and workloads, the
# comparison STM).
kvddeps="$(go list -deps ./cmd/stmkvd)"
for pkg in experiments harness intset tl2 vacation; do
  if grep -qx "tinystm/internal/$pkg" <<<"$kvddeps"; then
    echo "layering: cmd/stmkvd depends on internal/$pkg"
    fail=1
  fi
done

# Layering: the load generator is a client. stmkv-loadgen links neither
# the STM nor the store and server it drives, nor the reproduction layer.
lgdeps="$(go list -deps ./cmd/stmkv-loadgen)"
for pkg in core experiments harness intset kvserver kvstore tl2 vacation; do
  if grep -qx "tinystm/internal/$pkg" <<<"$lgdeps"; then
    echo "layering: cmd/stmkv-loadgen depends on internal/$pkg"
    fail=1
  fi
done

if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./... || fail=1
else
  echo "staticcheck not installed; skipped (CI runs the pinned version)"
fi

exit "$fail"

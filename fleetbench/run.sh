#!/usr/bin/env bash
# Build the fleet benchmark from source and run it. Call from the
# repository root:
#
#   bash fleetbench/run.sh --workload ingest --seed 1 --seconds 10 --trace 0
#
# Every build product (binary, Go build cache, temporary files) stays
# under .bench_build/ in the current directory.
set -euo pipefail
root=$PWD
out=$root/.bench_build/fleetbench
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly CGO_ENABLED=0
(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
FLEETBENCH_COMMIT=${FLEETBENCH_COMMIT:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}
export FLEETBENCH_COMMIT
exec "$out/fleetbench" "$@"

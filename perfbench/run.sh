#!/usr/bin/env bash
# Builds the slimfast binary and the benchmark from this checkout, then
# runs the benchmark with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload node-ingest --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes under .bench_build/
# in the checkout, the Go build cache included.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0
go build -o "$out/bin/slimfast" ./cmd/slimfast >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" --bin "$out/bin/slimfast" --work "$out/run" "$@"

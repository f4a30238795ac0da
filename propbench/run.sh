#!/usr/bin/env bash
# Builds propserve and the benchmark from this checkout's sources, then
# runs one workload. From the repository root:
#
#   bash propbench/run.sh --workload hit-zipf --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root (Go build cache, binaries, per-run corpora and logs).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false CGO_ENABLED=0

(cd "$root" && go build -o "$out/bin/propserve" ./cmd/propserve) >&2
(cd "$root/propbench" && go build -o "$out/bin/propbench" .) >&2
exec "$out/bin/propbench" -propserve "$out/bin/propserve" -work "$out/runs" "$@"

#!/usr/bin/env bash
# Builds loadbench from the sources in this checkout and runs it with the
# given arguments, e.g.
#
#   bash loadbench/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays under .bench_build/
# at the repository root: the Go build cache, the binary, index stores
# while they are in use, and the span dump of a traced run. The build uses
# the local toolchain only and never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/loadbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd loadbench && go build -o "$out/loadbench" .)
exec "$out/loadbench" --out "$out" "$@"

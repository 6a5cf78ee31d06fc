#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it. Run it
# from the repository root; every argument passes through to the program:
#
#   bash perfbench/run.sh --workload pf-merge --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and trace artifacts stay under
# .bench_build/ in the checkout, and the build never touches the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

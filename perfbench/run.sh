#!/usr/bin/env bash
# run.sh builds the benchmark from source and runs it with the given
# arguments. Run it from the repository root, for example
#
#   bash perfbench/run.sh --workload flow-train --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build in the working directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

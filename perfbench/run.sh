#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
# Run from the root of the repository:
#   bash perfbench/run.sh --workload contended --seed 1 --seconds 15 --trace 0
# Every build and cache file goes under .bench_build in the current
# directory.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of the repository" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOENV=off GOFLAGS=
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

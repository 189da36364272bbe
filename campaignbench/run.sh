#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash campaignbench/run.sh --workload campaign-cold --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the runs' scratch stores stay under
# .bench_build/ in the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/campaignbench" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"

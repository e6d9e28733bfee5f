#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload mssp --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, the binary, traces) stays
# under .bench_build/ in the checkout. The benchmark is a module of its
# own that takes the repository's packages from the parent directory,
# so it cannot build from a copy holding only the benchmark.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"

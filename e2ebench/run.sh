#!/usr/bin/env bash
# Builds the end-to-end benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments. Run it from the root
# of the repository:
#
#   bash e2ebench/run.sh -workload replay-dense -seed 1 -seconds 20 -trace 0
#
# Everything the build and the run write stays under .bench_build (or
# under $CARGO_TARGET_DIR when that is set): the Go build and module
# caches, the binary and the traced runs' span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -trace-dir "$out/traces" "$@"

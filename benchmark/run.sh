#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build leaves behind (Go build cache, binary)
# and everything a run writes (WAL directories, sockets, span dumps)
# stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOENV=off GOPROXY=off GOTOOLCHAIN=local
go -C "$here" build -o "$out/hipac-benchmark" . >&2
cd "$root"
exec "$out/hipac-benchmark" "$@"

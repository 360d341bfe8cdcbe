#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given flags, for example:
#
#   bash bench/run.sh --workload rtt-1conn --seed 1 --seconds 15 --trace 0
#
# The build cache, module cache and binary live in .bench_build at the
# repository root, so nothing is read from or written to the user's Go
# directories. The first build compiles the standard library into that
# cache; later ones take a second or two.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"

(
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
	export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOFLAGS= GOTOOLCHAIN=local
	go -C "$root/bench" build -o "$out/msqueue-bench" .
)
exec "$out/msqueue-bench" "$@"

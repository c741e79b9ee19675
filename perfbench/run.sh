#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload rsa2048-closed --seed 1 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build and module caches) lives under
# .bench_build in the current directory; nothing is fetched over the network.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -trace-out "$out/traces" "$@"

#!/usr/bin/env bash
# Builds vaxbench from this checkout and runs it with the given flags,
# e.g. from the repository root:
#
#   bash bench/run.sh --workload vm_mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build and module caches, the binary and,
# for traced runs, the span files.
set -euo pipefail

root=$(pwd)
bench_dir=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

(cd "$bench_dir" && go build -o "$out/vaxbench" ./cmd/vaxbench)
exec "$out/vaxbench" -root "$root" -spans-dir "$out/spans" "$@"

#!/usr/bin/env bash
# Builds the TPC-H benchmark from source and runs one workload.
#
#   bash tpchbench/run.sh --workload tpch-exact --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, temporary files, the binary, heap
# files, spill runs and span files. The benchmark's module points at the
# repository through a `replace` directive, so the build fails (and no
# result is printed) when the repository is not there.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/config"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

go -C "$here" build -o "$build/tpchbench" . >&2
cd "$root"
exec "$build/tpchbench" "$@"

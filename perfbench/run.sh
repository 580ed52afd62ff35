#!/usr/bin/env bash
# Builds the benchmark driver from the sources of the checkout this
# script sits in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload ls-websearch --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, spill
# files, traced spans) stays under .bench_build/ in the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/spans"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false TMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -spans-dir "$out/spans" "$@"

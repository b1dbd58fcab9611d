#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload knn-read --seed 1 --seconds 15 --trace 0
#
# "--trace 1" selects the build with the layer replay (-tags
# benchtrace). The Go build cache, the binaries and the result files
# all live under .bench_build/ at the repository root, so a run writes
# nothing outside the checkout. Without the repository's sources (only
# bench/ present) the build fails and the script exits non-zero.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

tags=
prev=
for a in "$@"; do
	case "$prev=$a" in --trace=1 | -trace=1) tags=benchtrace ;; esac
	case "$a" in --trace=1 | -trace=1) tags=benchtrace ;; esac
	prev=$a
done

bin="$build/hdidx-bench${tags:+-trace}"
(cd "$root/bench" && go build -tags "$tags" -o "$bin" .)
cd "$root"
exec "$bin" -out "$build/results" "$@"

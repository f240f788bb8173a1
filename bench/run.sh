#!/usr/bin/env bash
# Builds cabench from the sources of the checkout it is run in and runs it
# with the given arguments. Run from the repository root:
#
#   bash bench/run.sh --workload mc-equipped --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (the binary, Go's build cache, temporary
# files) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
# Go reads its environment file and keeps telemetry under the user
# configuration directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"

(cd "$root/bench" && go build -o "$build/cabench" .) >&2
exec "$build/cabench" "$@"

#!/usr/bin/env bash
# Builds the OPPROX end-to-end benchmark from source inside the checkout
# and runs it with every argument passed through (see README.md):
#
#   bash _perfbench/run.sh --workload hot-fleet --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Go's build cache, its temporary files
# and the benchmark's own scratch files all stay under $CARGO_TARGET_DIR
# (default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$root/_perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -workdir "$build/work" -tracedir "$build/traces" "$@"

#!/usr/bin/env bash
# Builds vmbench from the source in this checkout and runs it with the
# given arguments, e.g.
#
#   bash vmbench/run.sh --workload fleet --seed 1 --seconds 12 --trace 0
#
# Run it from the root of the repository. The build cache, temporary files,
# the binary and the traced run's spans all go under $CARGO_TARGET_DIR
# (default .bench_build), inside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
out=$build/vmbench
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/vmbench" && go build -o "$out/vmbench" .) >&2
exec "$out/vmbench" -out "$out" "$@"

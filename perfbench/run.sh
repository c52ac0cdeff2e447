#!/usr/bin/env bash
# Builds rvpredict, rvpredictd and the benchmark from the sources
# of this checkout, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload derby --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and the benchmark's scratch files all stay under $CARGO_TARGET_DIR (default
# .bench_build), so nothing outside the checkout is written.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/rvpredict ] || [ ! -d cmd/rvpredictd ]; then
	echo "perfbench: run from the root of a checkout holding the detector's sources" >&2
	exit 1
fi

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/go-cache
export GOPATH=$build/go-path
export GOMODCACHE=$build/go-path/pkg/mod
export XDG_CONFIG_HOME=$build/config
export TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# In its default mode, Go's toolchain telemetry makes go commands start a
# detached helper process that can outlive the build. Switch it off for
# the private config directory above before running any other go command.
go telemetry off

go build -o "$build/bin/" ./cmd/rvpredict ./cmd/rvpredictd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"

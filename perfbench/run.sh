#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the arguments it
# was given, for example:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Run it from the module root. The binary, Go's build cache and every
# temporary file stay under .bench_build/ there, so a run writes nothing
# outside the checkout and needs no network.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/go-build" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/go-build" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"

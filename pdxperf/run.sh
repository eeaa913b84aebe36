#!/usr/bin/env bash
# Builds pdx and the pdxperf benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash pdxperf/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/pdx || ! -f pdxperf/go.mod ]]; then
	echo "pdxperf: run from the repository root (go.mod, cmd/pdx and pdxperf/ are required)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off CGO_ENABLED=0

go build -o "$out/pdx" ./cmd/pdx
(cd pdxperf && go build -o "$out/pdxperf" .)
exec "$out/pdxperf" -pdx "$out/pdx" -root "$PWD" "$@"

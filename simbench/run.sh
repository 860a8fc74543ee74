#!/usr/bin/env bash
# Builds the simulator-speed benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash simbench/run.sh --workload tls4k-smartdimm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and traced-run output.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/simbench" build -o "$out/bin/simbench" .
exec "$out/bin/simbench" "$@"

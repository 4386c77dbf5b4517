#!/usr/bin/env bash
# The benchmark's one entry point, and the command BENCHMARK.json names:
#
#   bench/run.sh <workload> [seed]                       one end-to-end run
#   bench/run.sh --workload W --seed N --seconds T --trace 0|1
#   bench/run.sh parity | aa [-n 6] [-vary]
#
# It builds the harness and the real cmd/serve binary once, before anything
# is timed, into .bench_build/ at the repository root (build cache and the
# compiler's temporary files included, so nothing is written outside the
# checkout), then hands over to the harness. bench/README.md has the rest.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d cmd/serve ]; then
	echo "bench/run.sh: no program to measure here (go.mod and cmd/serve are missing)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false XDG_CONFIG_HOME="$out/config"
# With telemetry in its default mode the go command leaves a child of its own
# running behind it (the weekly report writer); off, it starts none.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/bin/" ./bench ./cmd/serve
exec "$out/bin/bench" "$@"

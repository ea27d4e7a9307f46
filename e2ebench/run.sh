#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run it from the
# repository root with the benchmark's flags, for example:
#
#   bash e2ebench/run.sh --workload fleet-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory: the binary, the Go build cache, journal directories
# and the traced run's spans.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/home"
(
	cd e2ebench
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOENV=off GOTOOLCHAIN=local \
		GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS= \
		go build -o "$out/e2ebench" . >&2
)
exec "$out/e2ebench" "$@"

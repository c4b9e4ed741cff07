#!/usr/bin/env bash
# Builds fmbench from this checkout's sources and runs it from the
# repository root. Every file the build and the run write lands under
# .bench_build/ (Go build cache, module cache, temp files, the binary,
# results and traces).
#
#   bash bench/run.sh --workload <scan-nation|characterize|chaos-measure|serve-identify|all> \
#       --seed N --seconds S --trace 0|1
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOTOOLCHAIN=local GOFLAGS= \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"

(cd "$root/bench" && go build -o "$out/fmbench" .)
exec "$out/fmbench" --repo "$root" --out "$out" "$@"

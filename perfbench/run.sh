#!/usr/bin/env bash
# Builds octserve and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve --seed 3 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays in
# .bench_build/, the Go build cache and configuration included; the last
# line of its standard output is the JSON result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/octserve" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/octserve here)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/octserve" ./cmd/octserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -octserve "$out/bin/octserve" -out "$out" "$@"

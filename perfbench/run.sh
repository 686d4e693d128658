#!/usr/bin/env bash
# Builds the repository benchmark and runs it. Run it from the repository
# root, e.g.
#
#   bash perfbench/run.sh --workload chip64 --seed 1 --seconds 20 --trace 0
#
# The benchmark is a Go module of its own that imports the repository module
# through a replace directive, so it is built from the checkout's sources.
# Everything the build and the runs leave behind (Go build cache, binary,
# session scratch directories, span dumps) goes under .bench_build, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out=$root/$out
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" -out "$out" "$@"

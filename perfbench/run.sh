#!/usr/bin/env bash
# Builds perfbench from source and runs one benchmark run. Run it from
# the repository root:
#
#   bash perfbench/run.sh --workload svc-interactive --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and the runs' write-ahead logs stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp" "$out/runs"

# The Go toolchain's cache, temp files, module path and config (where its
# telemetry counters go) all point inside the checkout; nothing is fetched.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C perfbench build -o "$out/perfbench" .

runs="$(mktemp -d "$out/runs/run-XXXXXX")"
trap 'rm -rf "$runs"' EXIT
"$out/perfbench" --scratch "$runs" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload, e.g.
#   bash xtalkbench/run.sh --workload e5 --seed 1 --seconds 20 --trace 0
# Run it from the repository root. The Go build cache, the binary, the run
# records and the span dumps all go under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is read from or written to the user's home or
# the system temporary directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd "$here" && go build -o "$out/xtalkbench" .)
exec "$out/xtalkbench" --root . --out "$out" "$@"

#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it.
#
#   bash e2ebench/run.sh --workload table4 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (go build cache, temp files, the
# binary, span dumps) goes under .bench_build/ at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build/e2ebench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" --root "$root" "$@"

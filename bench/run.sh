#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Everything it writes — the Go build cache and scratch
# files, the binary, the traces — stays inside the checkout:
# .bench_build/ and bench/out/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -o "$build/p2pbench" ./cmd/p2pbench) >&2
exec "$build/p2pbench" "$@"

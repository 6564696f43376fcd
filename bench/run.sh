#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the checkout root (build cache included, so
# nothing is written outside the checkout) and runs it with the given
# arguments. Run it from the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$root/.bench_build/bench" .)
exec "$root/.bench_build/bench" "$@"

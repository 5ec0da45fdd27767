#!/usr/bin/env bash
# Builds cmd/bench from source into .bench_build/ at the root of the checkout
# and runs it there with the arguments given. Nothing is read or written
# outside the checkout: the Go build cache lives in .bench_build/ too.
set -euo pipefail
root=$(cd "$(dirname "$0")/../.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/cmd/bench" && go build -o "$build/bench" .) >&2
cd "$root"
exec "$build/bench" "$@"

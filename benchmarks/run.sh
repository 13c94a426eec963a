#!/usr/bin/env bash
# The benchmark's one command: builds lamsbench from source into
# .bench_build/ at the root of the checkout, then runs it with the given
# arguments (see README.md). Everything it writes stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"

# Keep the go tool's own files (build cache, module cache, telemetry) in
# the build directory, and keep it off the network.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
# The module replaces the repository's module with "../": in a directory
# that holds only the benchmark, this build fails and so does the run.
(cd "$here" && go build -o "$build/lamsbench" .) >&2

exec "$build/lamsbench" "$@"

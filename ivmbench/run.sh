#!/usr/bin/env bash
# Builds ivmbench from the sources of the checkout it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash ivmbench/run.sh --workload census-cold --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/ivmbench" .) >&2
exec "$out/ivmbench" "$@"

#!/usr/bin/env bash
# Builds ullbench from this checkout's source and runs it with the given
# flags, e.g.:
#
#   bash bench/run.sh --workload read-qd1 --seed 1 --seconds 20 --trace 0
#
# Every build artefact, cache and temporary file stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/ullbench" ./ullbench) >&2
exec "$out/ullbench" "$@"

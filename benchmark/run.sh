#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload. Usage, from the repository root:
#
#   bash benchmark/run.sh --workload <build|featurize|neighbors> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache and run scratch space all stay under
# .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/benchmark" && go build -buildvcs=false -o "$out/levaperf" .)
rev=unknown
if [ -d "$root/.git" ]; then
	rev="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
cd "$root"
LEVAPERF_REVISION="$rev" exec "$out/levaperf" "$@"

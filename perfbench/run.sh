#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload dense-busy --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, telemetry) stays
# under .bench_build/ in the checkout; the module has no dependencies to
# fetch, and fetching is switched off.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/service" ]]; then
	echo "perfbench: $root is not a distspanner checkout" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"

#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the Go
# toolchain writes (build cache, module cache, telemetry) is kept inside
# .bench_build/ so a run touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ]; then
	echo "benchmark/run.sh: no go.mod in $root: the benchmark builds against the repository it sits in" >&2
	exit 1
fi
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/haocl-benchmark" .)
cd "$root"
exec "$out/haocl-benchmark" "$@"

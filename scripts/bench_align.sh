#!/bin/sh
# bench_align.sh reports where the linker put math/rand.read in the built
# repository benchmark, and fails when that address is 0 mod 64.
#
#   bash benchmark/run.sh --workload bulk-xfer --seconds 1 --trace 0   # builds .bench_build/
#   scripts/bench_align.sh
#
# Three quarters of bulk-xfer's setup_s is the benchmark filling payloads
# with math/rand.Read, whose inner loop runs about 20 % slower when the
# function starts on a 64-byte boundary. internal/protocol and
# internal/vtime are linked ahead of it, so a code-size change there — or
# in anything else that moves it — can flip setup_s by +18-30 % for no
# reason in the code (CHANGES.md, PRs 14 and 18). Run this on both sides of
# a comparison before reading that metric; a side that fails is measured
# from a build nudged off the boundary, or its setup_s is reported as
# unresolved. It reads the binary and touches nothing under benchmark/.
set -eu
bin="${1:-$(dirname "$0")/../.bench_build/haocl-benchmark}"
if [ ! -f "$bin" ]; then
	echo "bench_align: no $bin: build it first (bash benchmark/run.sh ...)" >&2
	exit 2
fi
addr="$(go tool nm "$bin" | awk '$3 == "math/rand.read" { print $1 }')"
if [ -z "$addr" ]; then
	echo "bench_align: $bin has no symbol math/rand.read" >&2
	exit 2
fi
off=$((0x$addr % 64))
echo "math/rand.read at 0x$addr ($off mod 64) in $bin"
if [ "$off" -eq 0 ]; then
	echo "bench_align: 64-byte aligned: bulk-xfer setup_s reads 18-30 % slow from this build" >&2
	exit 1
fi

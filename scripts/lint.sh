#!/bin/sh
# lint.sh runs the same checks as the CI lint job, in the same order.
#
#   scripts/lint.sh
#
# staticcheck and govulncheck are skipped when not installed so the script
# works on a bare checkout; CI sets LINT_REQUIRE_TOOLS=1 after installing
# pinned versions, which turns a missing tool into a failure instead.
set -eu
cd "$(dirname "$0")/.."

echo '>> gofmt'
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "gofmt needed on:" >&2
	echo "$out" >&2
	exit 1
fi

echo '>> go vet'
go vet ./...
go vet ./examples/...

echo '>> haoclvet (lockguard, lockorder, vtimedet, errclass)'
go run ./cmd/haoclvet ./...

# The allocation budgets skip under the race detector, which is how the test
# matrix runs everything else.
echo '>> allocation budgets (no race detector)'
go test -count=1 -run 'AllocationBudget|ZeroAlloc' ./internal/...

echo '>> bench checker self-tests'
python3 scripts/check_bench_test.py

# benchmark/ is a Go module of its own: the root module's build, vet and
# tests never see it, so a signature change that breaks it would otherwise
# surface only at the next measurement.
echo '>> benchmark module (go vet, go test)'
(cd benchmark && go vet ./... && go test ./...)

# Informational: the size counters (non-test lines, mutexes, exported
# identifiers). Gates nothing.
echo '>> counters'
go run scripts/counters.go

run_tool() {
	tool="$1"
	shift
	if command -v "$tool" >/dev/null 2>&1; then
		echo ">> $tool"
		"$tool" "$@"
	elif [ "${LINT_REQUIRE_TOOLS:-}" = "1" ]; then
		echo "$tool is required in CI but not installed" >&2
		exit 1
	else
		echo ">> $tool (skipped: not installed)"
	fi
}

run_tool staticcheck ./...
run_tool govulncheck ./...

echo 'lint: all checks passed'

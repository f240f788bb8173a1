#!/bin/sh
# benchgate.sh — the perf regression tripwire: measure the gated hot paths
# of a base commit and of the working tree on the same machine, and fail
# when the working tree regressed.
#
#	sh scripts/benchgate.sh <base-ref>
#
# Checks <base-ref> out into a temporary git worktree, builds the root and
# internal/acasx test binaries once per side, and runs the three gated
# benchmarks (Fig5HeadOn 2000x, TableLookupHot 100000x, AllQValuesFast
# 10000x) for three rounds, alternating which side goes first. cmd/benchgate
# then compares the best run of each side: a >25% ns/op regression, or any
# allocation, fails. CI passes the merge-base of a pull request, or the
# previous tip of a push.
set -eu
if [ $# -ne 1 ]; then
	echo "usage: sh scripts/benchgate.sh <base-ref>" >&2
	exit 2
fi
cd "$(dirname "$0")/.."
ROOT=$(pwd)
BASE=$(git rev-parse --verify "$1^{commit}")

TMP=$(mktemp -d)
trap 'git worktree remove --force "$TMP/base" 2>/dev/null || true; rm -rf "$TMP"' EXIT
trap 'exit 130' INT TERM
git worktree add --detach --quiet "$TMP/base" "$BASE"
echo "benchgate: base $BASE vs working tree"

# build <src> <bin>: the two test binaries of one side.
build() {
	mkdir -p "$2"
	(cd "$1" && go test -c -o "$2/root.test" . && go test -c -o "$2/acasx.test" ./internal/acasx)
}
build "$TMP/base" "$TMP/old"
build "$ROOT" "$TMP/new"

# bench <side> <benchmark> <benchtime>: one run of one gated benchmark on
# one side (old = base, new = working tree), appended to $TMP/<side>.txt.
# Each binary runs from its package directory, as `go test` would.
bench() {
	src=$ROOT
	[ "$1" = old ] && src=$TMP/base
	bin=$TMP/$1/root.test
	if [ "$2" = AllQValuesFast ]; then
		src=$src/internal/acasx
		bin=$TMP/$1/acasx.test
	fi
	if ! (cd "$src" && "$bin" -test.run '^$' -test.bench "^Benchmark$2\$" -test.benchtime "$3" -test.benchmem -test.timeout 10m) >"$TMP/run.txt" 2>&1; then
		cat "$TMP/run.txt" >&2
		echo "benchgate: $2 failed on the $1 side" >&2
		exit 1
	fi
	cat "$TMP/run.txt" >>"$TMP/$1.txt"
}

for order in "old new" "new old" "old new"; do
	for spec in Fig5HeadOn:2000x TableLookupHot:100000x AllQValuesFast:10000x; do
		for side in $order; do
			bench "$side" "${spec%:*}" "${spec#*:}"
		done
	done
done

go run ./cmd/benchgate "$TMP/old.txt" "$TMP/new.txt"

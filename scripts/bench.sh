#!/bin/sh
# bench.sh — record one point of the repo's performance trajectory.
#
# Runs the paper-figure benchmark harness (E1-E8, see bench_test.go), the
# campaign sweep benchmark, and the online hot-path lookup benchmark, then
# converts the output into BENCH_<date>.json via cmd/benchjson. Snapshots
# are meant to be checked in so the trajectory accumulates; compare two with
#
#	go run ./cmd/benchjson -compare BENCH_old.json BENCH_new.json
#
# Environment overrides:
#	OUT                output file   (default BENCH_<today>.json)
#	BENCHTIME          -benchtime for the E1-E8 harness (default 1x)
#	LOOKUP_BENCHTIME   -benchtime for the lookup hot path (default 100000x)
#	QUERY_BENCHTIME    -benchtime for the full-table query benchmark
#	                   (default 20000x)
#	EPISODE_BENCHTIME  -benchtime for the steady-state episode benchmark
#	                   (default 2000x; allocs/op is per episode)
#	PARALLEL_BENCHTIME -benchtime for the worker-scaling benchmark
#	                   (default 5x; each op is a 512-episode estimate)
#	TABLE_BENCHTIME    -benchtime for the table save/load benchmarks
#	                   (default 50x)
#	SERVE_BENCHTIME    -benchtime for the validation-service throughput
#	                   benchmark (default 3x; each op is a 4-cell job
#	                   through submit -> journal -> shard -> artifacts,
#	                   reported as cells/s)
set -eu
cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_$(date +%Y-%m-%d).json}
BENCHTIME=${BENCHTIME:-1x}
LOOKUP_BENCHTIME=${LOOKUP_BENCHTIME:-100000x}
QUERY_BENCHTIME=${QUERY_BENCHTIME:-20000x}
EPISODE_BENCHTIME=${EPISODE_BENCHTIME:-2000x}
PARALLEL_BENCHTIME=${PARALLEL_BENCHTIME:-5x}
TABLE_BENCHTIME=${TABLE_BENCHTIME:-50x}
SERVE_BENCHTIME=${SERVE_BENCHTIME:-3x}

TMP=$(mktemp)
STAGE=$(mktemp)
trap 'rm -f "$TMP" "$STAGE"' EXIT

# run_bench captures one `go test -bench` invocation, echoing its output
# and appending it to $TMP. A plain `go test | tee` pipeline would return
# tee's status under POSIX sh (no pipefail), letting a failed benchmark run
# still write a snapshot; capture-then-check keeps failures fatal.
run_bench() {
	if ! go test "$@" >"$STAGE" 2>&1; then
		cat "$STAGE" >&2
		echo "bench.sh: benchmark run failed; no snapshot written" >&2
		exit 1
	fi
	cat "$STAGE"
	cat "$STAGE" >>"$TMP"
}

# E1-E8 + campaign sweep + backend comparison: one iteration by default —
# these exist to record the reported shape metrics (NMAC rates, risk
# ratios, fitness, per-backend risk ratios) alongside coarse timings.
run_bench -run '^$' \
  -bench '^(BenchmarkFig5HeadOn|BenchmarkFig6GASearch|BenchmarkFig7Fig8TailApproach|BenchmarkSectionIIIGrid2D|BenchmarkValueIterationFullTable|BenchmarkGAVersusRandomSearch|BenchmarkMonteCarloRiskRatio|BenchmarkCampaignSweep|BenchmarkIslandSearch|BenchmarkBackendComparison)$' \
  -benchtime "$BENCHTIME" -benchmem .

# Every registered backend's decision cycle must stay allocation-free (CI
# gates on both).
run_bench -run '^$' -bench '^Benchmark(MPC|APF)Decide$' \
  -benchtime "$LOOKUP_BENCHTIME" -benchmem ./internal/mpc ./internal/apf

# The online hot path needs real iteration counts for a stable ns/op, and
# its allocs/op must stay 0 (CI gates on it).
run_bench -run '^$' -bench '^BenchmarkTableLookupHot$' \
  -benchtime "$LOOKUP_BENCHTIME" -benchmem .

# The table query on the full-resolution (DRAM-resident) table: one
# shared-weight lookup per op over an uncorrelated query stream. CI's
# regression tripwire gates on it staying fast and allocation-free.
run_bench -run '^$' -bench '^BenchmarkAllQValuesFast$' \
  -benchtime "$QUERY_BENCHTIME" -benchmem ./internal/acasx

# The Monte-Carlo episode engine: steady-state per-episode cost for the
# pairwise engine, the two-intruder engine, the degraded-surveillance
# path, the importance-sampling rare-event estimator (b.N is the
# episode count, so allocs/op must stay ~0 — CI gates on the first four)
# and the equipped head-on episode (episodes/s is the headline metric),
# plus worker-count wall-clock scaling (512-episode estimates per op). The
# rare-event benchmark also reports the measured variance-reduction factor
# (VRF) as a custom metric, captured into the snapshot.
run_bench -run '^$' -bench '^Benchmark(Evaluate(MultiIntruder|Faulted|Equipped)?|RareEvent)SteadyState$' \
  -benchtime "$EPISODE_BENCHTIME" -benchmem ./internal/montecarlo
run_bench -run '^$' -bench '^BenchmarkEvaluateParallel$' \
  -benchtime "$PARALLEL_BENCHTIME" -benchmem ./internal/montecarlo

# Logic-table save/load throughput (bulk slice encoding).
run_bench -run '^$' -bench '^(BenchmarkTableWriteTo|BenchmarkTableReadTable)$' \
  -benchtime "$TABLE_BENCHTIME" -benchmem ./internal/acasx

# Validation-service throughput: full submit -> journal -> shard ->
# artifact cycles through the crash-safe server, with an fsync per
# journal record. The custom cells/s metric is the service's headline
# number; a drop means the durability or supervision layer got heavier.
run_bench -run '^$' -bench '^BenchmarkServeCellThroughput$' \
  -benchtime "$SERVE_BENCHTIME" -benchmem ./internal/serve

# Convert into $STAGE first and move into place, so a benchjson failure
# cannot leave a truncated snapshot behind.
go run ./cmd/benchjson <"$TMP" >"$STAGE"
mv "$STAGE" "$OUT"
echo "wrote $OUT"

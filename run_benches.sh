#!/bin/sh
# Runs every benchmark binary in order (tables first, then ablations and
# the timing benchmarks). First run trains the model zoo (~1h on one core);
# cached runs take ~15 minutes.
#
# --regression: instead of the full sweep, run only the serving throughput
# benchmarks on a pinned config (WISDOM_THREADS=4), write the results to
# build/bench_regression.json (or $BENCH_OUT), and fail if tokens/s drops
# more than 10% against the committed baseline in bench/bench_baseline.json
# — or if the overload sweep's shed/degraded rates rise past the absolute
# tolerance. This is what the CI bench-regression job runs. It refuses
# (exit 2) a host with fewer cores than the pinned thread count: more
# threads than cores measures oversubscription, not the pinned config.
set -e
cd "$(dirname "$0")"

if [ "$1" = "--regression" ]; then
  THREADS=4
  CPUS=$(nproc)
  if [ "$CPUS" -lt "$THREADS" ]; then
    echo "error: --regression pins WISDOM_THREADS=$THREADS but this host" \
         "has nproc=$CPUS; run it on a host with at least $THREADS cores" >&2
    exit 2
  fi
  OUT="${BENCH_OUT:-build/bench_regression.json}"
  BASELINE="${BENCH_BASELINE:-bench/bench_baseline.json}"
  WISDOM_THREADS=$THREADS build/bench/bench_throughput \
    --benchmark_filter='BM_BatchedSuggest|BM_OverloadSweep' \
    --benchmark_repetitions=3 --benchmark_min_time=1 \
    --benchmark_format=json --benchmark_out="$OUT" \
    --benchmark_out_format=json >/dev/null
  echo "wrote $OUT"
  python3 bench/check_bench_regression.py "$OUT" "$BASELINE" \
    --threshold 0.10 --seed-if-missing
  exit $?
fi

for b in build/bench/bench_table1_datasets build/bench/bench_table2_model_matrix \
         build/bench/bench_table3_fewshot build/bench/bench_table4_finetune \
         build/bench/bench_table5_gentypes build/bench/bench_ablations \
         build/bench/bench_micro build/bench/bench_throughput; do
  echo "==================== $b ===================="
  "$b"
  echo
done

#!/usr/bin/env bash
# One-command verification: every recipe from ROADMAP.md "How to verify",
# in order, plus the ingest-while-serving acceptance bench.
#
#   tier-1   default build + full ctest suite
#   tsan     ThreadSanitizer preset (parallel engine, server pool, live store)
#   chaos    corruption-fuzz labels under ASan
#   load     worker-pool server + load-harness labels (default build)
#   query    query-engine label (default build)
#   recovery durability suite (WAL, checkpoints, crash fuzz) under ASan,
#            then bench_recovery with its replay-throughput floors
#   ingest   bench_ingest: live vs stop-the-world, exits non-zero below the
#            5x floor or on any cross-regime checksum divergence
#   gameday  scenario + admission suite (default build), then bench_gameday:
#            exits non-zero if adaptive admission at 2x saturation loses the
#            queue-delay budget or too much goodput vs the fixed cliff
#   federation  sharded gateway suite under default, TSan AND ASan presets
#            (ring properties, outcome accounting, cross-shard golden parity,
#            typed shard calls, one day per request), then bench_federation:
#            exits non-zero when a fan-out endpoint's median p99 over the
#            repeats breaches 3x the single-shard p99 at the same offered
#            load, or has fewer than 1,000 samples
#   perfbench  configure + build the repo benchmark (perfbench/, its own CMake
#            package compiling ../src) exactly as perfbench/run.py does, into
#            .bench_build/perfbench, and run its self-tests (no timed run):
#            catches a src/ API change that breaks the benchmark's build
#
# Usage: tools/verify.sh [stage ...]     (no args = all stages)
# Env:   JOBS=<n> to cap build parallelism (default: nproc).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"

STAGES=("$@")
[[ ${#STAGES[@]} -eq 0 ]] &&
  STAGES=(tier1 tsan chaos load query recovery ingest gameday federation perfbench)

want() {
  local stage
  for stage in "${STAGES[@]}"; do
    [[ "$stage" == "$1" ]] && return 0
  done
  return 1
}

banner() { printf '\n==== %s ====\n' "$1"; }

if want tier1; then
  banner "tier-1: default build + full test suite"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build --output-on-failure -j"$JOBS"
fi

if want tsan; then
  banner "tsan: ThreadSanitizer preset"
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$JOBS"
  ctest --preset tsan
fi

if want chaos; then
  banner "chaos: corruption fuzz under ASan"
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$JOBS"
  ctest --test-dir build-asan -L chaos --output-on-failure
fi

if want load; then
  banner "load: server pool + load harness"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build -L load --output-on-failure
fi

if want query; then
  banner "query: query engine label"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS"
  ctest --test-dir build -L query --output-on-failure
fi

if want recovery; then
  banner "recovery: durability suite under ASan + bench_recovery floors"
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$JOBS" --target recovery_test
  ctest --test-dir build-asan -L recovery --output-on-failure
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target bench_recovery
  ./build/bench/bench_recovery --metrics-out=results/BENCH_recovery_metrics.json
fi

if want ingest; then
  banner "ingest: live store vs stop-the-world rebuild (floor 5x)"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target bench_ingest
  ./build/bench/bench_ingest --metrics-out=results/BENCH_ingest_metrics.json
fi

if want gameday; then
  banner "gameday: scenario + admission suite, then the SLO gate"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target gameday_test bench_gameday
  ctest --test-dir build -L gameday --output-on-failure
  ./build/bench/bench_gameday --metrics-out=results/BENCH_gameday_metrics.json
fi

if want federation; then
  banner "federation: sharded gateway suite (default + TSan + ASan), then the fan-out floor"
  cmake -B build -S . >/dev/null
  cmake --build build -j"$JOBS" --target federation_test bench_federation
  ctest --test-dir build -L federation --output-on-failure
  cmake --preset tsan >/dev/null
  cmake --build --preset tsan -j"$JOBS" --target federation_test
  ctest --test-dir build-tsan -L federation --output-on-failure
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$JOBS" --target federation_test
  ctest --test-dir build-asan -L federation --output-on-failure
  ./build/bench/bench_federation --metrics-out=results/BENCH_federation_metrics.json
fi

if want perfbench; then
  banner "perfbench: build the repo benchmark against this tree + self-tests"
  cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build .bench_build/perfbench -j"$JOBS"
  ./.bench_build/perfbench/perfbench_tests
fi

banner "all requested stages passed: ${STAGES[*]}"

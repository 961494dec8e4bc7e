#!/usr/bin/env bash
# Runs the micro-benchmark suite and emits a machine-readable map of
# benchmark id to nanoseconds per iteration at the repository root, so the
# perf trajectory of the simulator can be tracked across PRs
# (BENCH_PR1.json, BENCH_PR3.json, ...).
#
# Usage:
#   scripts/bench.sh [output.json]        full run (default: BENCH_PR13.json)
#   BENCH_SMOKE=1 scripts/bench.sh out    one tiny sample per bench — fast CI
#                                         smoke, numbers are noisy and must
#                                         never be compared with full runs
#
# CI diffs a smoke run against baselines/bench_reference.json with
# `cargo run -p harness --bin bench_trend`; regenerate that baseline with
#   BENCH_SMOKE=1 scripts/bench.sh baselines/bench_reference.json
# whenever benchmarks are added or intentionally change cost class.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_PR13.json}"

BENCH_JSON="$(pwd)/$out" cargo bench -p bench --bench pagecache_micro
echo "wrote $out"

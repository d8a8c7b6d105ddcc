#!/usr/bin/env bash
# Benchmark snapshot driver.
#
# Runs every experiment in --fast mode through `bench_regress`, writes
# `BENCH_e*.json` snapshots under target/bench/, and diffs them against
# the committed baselines/ directory: deterministic report sections
# must match byte for byte, the volatile `run` section structurally
# (add --wall-tol PCT on a quiet machine to band its wall-clock
# numbers too). Non-zero exit on any drift.
#
# Usage:
#   scripts/bench.sh               check against baselines/
#   scripts/bench.sh --update      regenerate baselines/ from this run
#   scripts/bench.sh --only e3     any bench_regress flag forwards
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline -p bench --bin bench_regress

# Overhead guard first: what a telemetry sample, a cache-hit request
# with telemetry, and a metrics scrape cost. The bench prints ns/iter
# for eyeballing; it has no baseline file because absolute timings are
# machine-bound.
cargo bench --offline -p sim-serve --bench telemetry_overhead

exec target/release/bench_regress --fast --out target/bench --baselines baselines "$@"

#!/usr/bin/env bash
# Tier-1 gate for the workspace. Must pass on a machine with NO network
# access: the workspace has zero crates.io dependencies, so every step
# runs with --offline.
#
# Usage: scripts/ci.sh [--heavy]
#   --heavy   additionally run tests/levelized_differential.rs over
#             50,000 random DAGs instead of 2,000 (feature `heavy-tests`)
set -euo pipefail
cd "$(dirname "$0")/.."

HEAVY=0
for arg in "$@"; do
    case "$arg" in
        --heavy) HEAVY=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

run cargo build --release --offline --workspace
run cargo test -q --offline --workspace
run cargo clippy --offline --workspace --all-targets -- -D warnings
# Rustdoc gate: every intra-doc link resolves and no doc names a private
# item, so a deleted or renamed item cannot leave dangling links.
RUSTDOCFLAGS="-D warnings" run cargo doc --no-deps --workspace --offline
# Metric regression gate: every experiment's JSON report vs the
# committed baselines (deterministic sections exact, run section
# structural — wall-clock banding is opt-in via --wall-tol).
run target/release/bench_regress --fast --out target/bench --baselines baselines
# Seed sweep: every experiment's in-report checks at the seeds the
# benchmark runs, the way its paper_repro workload runs them (--fast,
# e7 at full size because its statistical assert needs the full trial
# count, one thread). Any failing check exits nonzero.
echo "==> experiments e1-e14 at seeds 9001 9002 9003"
for seed in 9001 9002 9003; do
    for n in $(seq 1 14); do
        size=--fast
        [ "$n" = 7 ] && size=
        target/release/experiments "e$n" $size --threads 1 --seed "$seed" > /dev/null \
            || { echo "e$n failed its checks at seed $seed" >&2; exit 1; }
    done
done
# Netlist-core throughput smoke: the million-gate workloads (1M-stage
# pipelined string + 1000x1000 mesh waves) run through the event loop
# and must hold an events/sec floor — a scheduler or settle-loop
# slowdown fails here even if the counters still match — and the
# deterministic counter snapshot must match its committed baseline
# byte-for-byte. The floor is half the slowest of ten release runs on
# a 2-vCPU Linux VM (6.42M events/sec), rounded down. The same three
# runs then repeat through run_to_quiescence (the levelized pass); any
# differing counter, value, arrival or sim time exits nonzero.
run target/release/netlist_bench --out target/bench/BENCH_netlist.json --min-eps 3200000
run target/release/bench_regress --compare target/bench/BENCH_netlist.json --baselines baselines
# Trace smoke: one experiment through --trace end to end, then the
# standalone checker over the exported Perfetto file.
run target/release/experiments e6 --fast --trace target/bench/e6_trace.json
run target/release/trace_check target/bench/e6_trace.json
# Gate-level smoke: e5's Fig. 8 element pair — registers, XOR/XNOR,
# NAND-gated ring clocks and marked clock edges — through the checker.
run target/release/experiments e5 --fast --trace target/bench/e5_trace.json
run target/release/trace_check target/bench/e5_trace.json
# Fault-injection smoke: e12's Monte-Carlo degradation sweep with its
# in-report asserts, plus its fault-event trace back through the
# checker (fault_injected markers must keep handshake lanes legal).
run target/release/experiments e12 --fast --trace target/bench/e12_trace.json
run target/release/trace_check target/bench/e12_trace.json
# Chaos smoke: e13's fault-episode recovery asserts (rigid never
# recovers, TRIX/PALS heal every span) with its episode trace through
# the checker, then a sweep shard of the episode grid killed -9
# mid-run — --status must report it interrupted off its frozen
# vitals line count — resumed, and merged byte-identically.
run scripts/chaos_smoke.sh target/release
# Topology smoke: e14's realistic-topology scorecard (quadrant trees
# strictly dominate the equalized H-tree; the SDF fixture corpus
# imports, round-trips, and rejects), its skew-attribution trace
# through the checker, quadrant cells in the explore frontier, and
# BENCH_e14.json against its baseline.
run scripts/topo_smoke.sh target/release
# Serve smoke: sim_serve on an ephemeral port, cold/hot loadgen passes
# (cache must hit), BENCH_serve.json vs its baseline, clean drain on
# stdin close.
run scripts/serve_smoke.sh target/release
# Sweep smoke: the checkpointed mega-sweep workflow with a mid-run
# kill -9 — shard, kill, append a torn half-line, resume, merge — the
# merged report must be byte-identical to the uninterrupted
# single-process baseline; a doubling guard (twice the trials under
# 2.5x the time) keeps checkpoint cost linear in shard length, and the
# CLI contract (--help 0, usage 2) on all nine binaries rides along.
run scripts/sweep_smoke.sh target/release
# Sweep micro-bench: digests and merge==single invariant exact, wall
# clocks structural, vs the committed baseline.
run target/release/sweep_shard --bench --out target/bench/BENCH_sweep.json
run target/release/bench_regress --compare target/bench/BENCH_sweep.json --baselines baselines

if [ "$HEAVY" = 1 ]; then
    run cargo test -q --offline --features heavy-tests --test levelized_differential
fi

echo "==> tier-1 gate passed"

#!/usr/bin/env bash
# Tier-1 gate for the workspace. Must pass on a machine with NO network
# access: the workspace has zero crates.io dependencies, so every step
# runs with --offline.
#
# Usage: scripts/ci.sh [--heavy]
#   --heavy   additionally run the slow randomized property suite
#             (tests/props.rs, feature `heavy-tests`)
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
# Netlist-core throughput smoke: the million-gate workloads (1M-stage
# pipelined string + 1000x1000 mesh waves) must hold an events/sec
# floor — a scheduler or settle-loop slowdown fails here even if the
# counters still match — and the deterministic counter snapshot must
# match its committed baseline byte-for-byte. The floor is half the
# slowest of ten release runs on a 2-vCPU Linux VM (6.42M events/sec),
# rounded down.
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
# mid-run — --status must report it interrupted off the frozen
# heartbeat tick — resumed, and merged byte-identically.
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
# kill -9 — shard, kill, inject a torn temp file, resume, merge — the
# merged report must be byte-identical to the uninterrupted
# single-process baseline; the CLI contract (--help 0, usage 2) on all
# nine binaries rides along.
run scripts/sweep_smoke.sh target/release
# Sweep micro-bench: digests and merge==single invariant exact, wall
# clocks structural, vs the committed baseline.
run target/release/sweep_shard --bench --out target/bench/BENCH_sweep.json
run target/release/bench_regress --compare target/bench/BENCH_sweep.json --baselines baselines

if [ "$HEAVY" = 1 ]; then
    run cargo test -q --offline --features heavy-tests --test props
fi

echo "==> tier-1 gate passed"

#!/usr/bin/env bash
# Sweep smoke: the checkpointed mega-sweep workflow end to end, with a
# mid-run kill. Emit a sharded manifest, take a single-process baseline
# report, run two shards to completion, kill -9 the third mid-range
# (and append a torn half-line to its checkpoint journal, the shape a
# kill mid-append leaves), resume it, and verify the merged report is
# byte-identical to the baseline. A doubling guard then checks that
# checkpoint cost grows linearly with shard length. Also checks the
# CLI contract of all nine workspace binaries (--help exits 0; unknown
# flags, missing values, garbage or out-of-range numerics and unknown
# names exit 2 before any work starts).
#
# Usage: scripts/sweep_smoke.sh [BIN_DIR]
#   BIN_DIR   directory holding the workspace binaries (default
#             target/release)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release}"
OUT=target/bench/sweep_smoke
rm -rf "$OUT"
mkdir -p "$OUT"

fail() {
    echo "sweep_smoke: $*" >&2
    exit 1
}

# CLI contracts (sim_runtime::cli) on all nine binaries: --help exits 0
# with usage on stdout; an unknown flag, and a value flag with nothing
# after it, exit 2 before any work starts. Each entry is
# "binary:arguments ending in a value flag" (trace_check takes none).
for spec in "experiments:e6 --seed" "bench_regress:--out" "explore:--json" \
    "netlist_bench:--out" "sweep_shard:--manifest" "trace_check:" \
    "sim_serve:--port" "sim_loadgen:--addr" "sim_top:--addr"; do
    bin="${spec%%:*}"
    dangling="${spec#*:}"
    out=$("$BIN/$bin" --help) || fail "$bin --help must exit 0"
    [[ "$out" == usage:* ]] || fail "$bin --help must print usage on stdout"
    rc=0; "$BIN/$bin" --frobnicate >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || fail "$bin must exit 2 on an unknown flag (got $rc)"
    if [ -n "$dangling" ]; then
        rc=0
        # shellcheck disable=SC2086 # word-split the arguments
        "$BIN/$bin" $dangling >/dev/null 2>&1 || rc=$?
        [ "$rc" -eq 2 ] || fail "$bin must exit 2 on a trailing $dangling (got $rc)"
    fi
done
"$BIN/experiments" e6 --help >/dev/null || fail "experiments e6 --help must exit 0"
rc=0; "$BIN/experiments" e99 >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "experiments must exit 2 on an unknown experiment (got $rc)"
rc=0; "$BIN/experiments" e6 --trials x >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "experiments must exit 2 on garbage --trials (got $rc)"
rc=0; "$BIN/explore" --trials banana 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "explore must exit 2 on garbage --trials (got $rc)"
rc=0; "$BIN/sweep_shard" --manifest x --shard -3 --dir y 2>/dev/null || rc=$?
[ "$rc" -eq 2 ] || fail "sweep_shard must exit 2 on garbage --shard (got $rc)"
# Telemetry is always on: the old off switch is an unknown flag.
rc=0; "$BIN/sim_serve" --no-telemetry >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "sim_serve must exit 2 on --no-telemetry (got $rc)"
# The metrics body is JSON only: the retired Prometheus format is a
# usage error, refused before any connection is tried.
rc=0; "$BIN/sim_top" --format prom >/dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ] || fail "sim_top must exit 2 on --format prom (got $rc)"
# A floor or tolerance that no measurement can cross disarms its gate.
for bad in "NaN" "-1"; do
    rc=0; "$BIN/bench_regress" --wall-tol "$bad" >/dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || fail "bench_regress must exit 2 on --wall-tol $bad (got $rc)"
done
# netlist_bench must refuse values its workloads cannot run, before the
# million-gate runs start (the output file must not appear).
for bad in "--side 0" "--stages 0" "--stages 3" "--rate 2" "--rate NaN" \
    "--min-eps NaN" "--min-eps -1"; do
    rc=0
    # shellcheck disable=SC2086 # word-split the flag and its value
    "$BIN/netlist_bench" $bad --out "$OUT/bad_flags.json" 2>/dev/null || rc=$?
    [ "$rc" -eq 2 ] || fail "netlist_bench must exit 2 on $bad (got $rc)"
    [ ! -e "$OUT/bad_flags.json" ] || fail "netlist_bench ran a workload on $bad"
done
echo "==> CLI contracts hold (--help 0, usage errors 2)"

# The manifest: fast grid, 3 shards, checkpoint every 4 trials.
MANIFEST="$OUT/manifest.json"
run() {
    echo "==> $*"
    "$@"
}
run "$BIN/explore" --fast --seed 7 --trials 12 --shards 3 --checkpoint-every 4 \
    --emit-manifest "$MANIFEST"

# A shard index past the manifest's count is an error, not an empty
# success, and leaves no file behind.
rc=0; "$BIN/sweep_shard" --manifest "$MANIFEST" --shard 99 --dir "$OUT/past" 2>/dev/null || rc=$?
[ "$rc" -ne 0 ] || fail "sweep_shard must fail on --shard 99 of a 3-shard manifest"
[ ! -e "$OUT/past" ] || fail "sweep_shard wrote files for a shard past the manifest"

# Uninterrupted single-process baseline.
run "$BIN/sweep_shard" --manifest "$MANIFEST" --single --out "$OUT/single.json" \
    --threads 4

# Shards 0 and 2 run to completion; shard 1 is throttled, killed -9
# mid-range, given a torn last line, and resumed. Shard 1 runs
# two workers, so the kill lands while they are ahead of its last
# checkpoint: the resume must start from that checkpoint all the same.
run "$BIN/sweep_shard" --manifest "$MANIFEST" --shard 0 --dir "$OUT/shards" --threads 2
run "$BIN/sweep_shard" --manifest "$MANIFEST" --shard 2 --dir "$OUT/shards" --threads 2

echo "==> starting throttled shard 1 and killing it mid-range"
"$BIN/sweep_shard" --manifest "$MANIFEST" --shard 1 --dir "$OUT/shards" \
    --threads 2 --throttle-ms 30 >"$OUT/shard1_first.log" 2>&1 &
SHARD_PID=$!
CKPT="$OUT/shards/shard-1.json"
VITALS="$OUT/shards/shard-1.vitals"
# The vitals line lands right after each checkpoint; waiting for it
# guarantees both files exist when the kill hits.
for _ in $(seq 1 200); do
    [ -s "$VITALS" ] && break
    kill -0 "$SHARD_PID" 2>/dev/null || fail "shard 1 exited before its first checkpoint"
    sleep 0.05
done
[ -s "$CKPT" ] || fail "shard 1 never wrote a checkpoint"
[ -s "$VITALS" ] || fail "shard 1 never wrote its vitals"
kill -9 "$SHARD_PID" 2>/dev/null || true
wait "$SHARD_PID" 2>/dev/null || true
# Half of a result line with no newline: what a kill in the middle of
# an append leaves at the end of the journal.
INTACT_BYTES=$(wc -c <"$CKPT")
printf '%s' '0123456789abcdef {"torn_append' >>"$CKPT"

# The killed shard leaves its vitals behind: live vital signs for an
# operator, and the --status view must call the shard out. Its vitals
# line count is frozen, so the double-read probe downgrades it from
# active to interrupted.
LAST_VITALS=$(tail -n 1 "$VITALS")
grep -q '"trials_per_sec"' <<<"$LAST_VITALS" || fail "last vitals line is missing trials_per_sec"
grep -q '"eta_ms"' <<<"$LAST_VITALS" || fail "last vitals line is missing eta_ms"
run "$BIN/sweep_shard" --manifest "$MANIFEST" --status --dir "$OUT/shards" \
    | tee "$OUT/status_mid.log"
grep -Eq "^1 .* interrupted$" "$OUT/status_mid.log" \
    || fail "--status must show the killed shard as interrupted"
echo "==> killed shard left its vitals and --status reports it interrupted"

# The merge must refuse while shard 1 is incomplete.
if "$BIN/sweep_shard" --manifest "$MANIFEST" --merge --dir "$OUT/shards" \
    --out "$OUT/premature.json" 2>"$OUT/premature.err"; then
    fail "merge must refuse while a shard is incomplete"
fi
grep -q "incomplete" "$OUT/premature.err" || fail "premature merge must name the incomplete shard"
echo "==> premature merge correctly refused"

# Resume: picks up from the checkpoint (not trial 0), truncates the
# torn line away, and completes the range.
run "$BIN/sweep_shard" --manifest "$MANIFEST" --shard 1 --dir "$OUT/shards" \
    | tee "$OUT/shard1_resume.log"
grep -q "resumed at" "$OUT/shard1_resume.log" \
    || fail "resumed shard must report its checkpoint position"
grep -q "torn_append" "$CKPT" && fail "resume must truncate the torn last line"
[ "$(wc -c <"$CKPT")" -gt "$INTACT_BYTES" ] || fail "resume must append past the intact prefix"

# Completion appends a last vitals line and leaves no temp file or
# old heartbeat behind; --status now shows everything done.
STRAYS=$(find "$OUT/shards" -name '*.tmp' -o -name '*.hb.json')
[ -z "$STRAYS" ] || fail "finished shards left stray files: $STRAYS"
run "$BIN/sweep_shard" --manifest "$MANIFEST" --status --dir "$OUT/shards" \
    | tee "$OUT/status_done.log"
grep -q "(100.0%)" "$OUT/status_done.log" \
    || fail "--status must report the sweep 100% complete"
! grep -Eq " (active|interrupted|pending)$" "$OUT/status_done.log" \
    || fail "--status must show no live or interrupted shards after completion"
echo "==> no stray files after completion and --status reports 100%"

# Merge and compare: killed + resumed + out-of-order shards must merge
# byte-identically to the uninterrupted single-process run.
run "$BIN/sweep_shard" --manifest "$MANIFEST" --merge --dir "$OUT/shards" \
    --out "$OUT/merged.json" --frontier "$OUT/frontier.json"
cmp "$OUT/single.json" "$OUT/merged.json" \
    || fail "merged report differs from the single-process baseline"
echo "==> merged report is byte-identical to the single-process baseline"

grep -q '"vlsi-sync/frontier-report"' "$OUT/frontier.json" \
    || fail "frontier report missing its schema marker"

# Doubling guard: each checkpoint appends only its new results, so one
# shard's cost grows linearly with its length. A shard of twice the
# trials, checkpointed every 16, must take under 2.5x the time (median
# of 3 runs each; a whole-prefix rewrite at every boundary measured
# 3.2-4.2x on a 2-vCPU VM).
median_ms() {
    local manifest="$1" dir="$2" times=()
    for _ in 1 2 3; do
        rm -rf "$dir"
        local t0 t1
        t0=$(date +%s%N)
        "$BIN/sweep_shard" --manifest "$manifest" --shard 0 --dir "$dir" --threads 2 \
            >/dev/null || fail "doubling-guard shard failed"
        t1=$(date +%s%N)
        times+=($(((t1 - t0) / 1000000)))
    done
    printf '%s\n' "${times[@]}" | sort -n | sed -n 2p
}
for trials in 200 400; do
    "$BIN/explore" --fast --seed 7 --trials "$trials" --shards 1 --checkpoint-every 16 \
        --emit-manifest "$OUT/doubling_$trials.json" >/dev/null
done
SHORT_MS=$(median_ms "$OUT/doubling_200.json" "$OUT/doubling_short")
LONG_MS=$(median_ms "$OUT/doubling_400.json" "$OUT/doubling_long")
echo "==> doubling guard: 200/point ${SHORT_MS} ms, 400/point ${LONG_MS} ms"
[ $((LONG_MS * 10)) -lt $((SHORT_MS * 25)) ] \
    || fail "twice the trials took ${LONG_MS} ms against ${SHORT_MS} ms (limit 2.5x)"

echo "==> sweep smoke passed"

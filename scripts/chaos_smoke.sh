#!/usr/bin/env bash
# Chaos smoke: the self-stabilization pipeline end to end. Two layers
# of fault tolerance are exercised in one script — the *simulated*
# layer (e13's fault episodes, with the in-report asserts that the
# rigid scheme never recovers while TRIX/PALS heal every violation
# span, plus its episode trace back through the checker) and the
# *process* layer (a sweep shard over the episode-bearing design-space
# grid is killed -9 mid-run, `--status` must call it `interrupted` via
# its frozen vitals line count, and the resumed + merged report must be
# byte-identical to an uninterrupted single-process run).
#
# Usage: scripts/chaos_smoke.sh [BIN_DIR]
#   BIN_DIR   directory holding experiments/explore/sweep_shard/
#             trace_check (default target/release)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release}"
OUT=target/bench/chaos_smoke
rm -rf "$OUT"
mkdir -p "$OUT"

fail() {
    echo "chaos_smoke: $*" >&2
    exit 1
}

run() {
    echo "==> $*"
    "$@"
}

# --- Simulated chaos: e13's recovery harness -------------------------
# The binary asserts in-report: storm-rate episodes leave the rigid
# network with unrecovered spans at every size, while TRIX and PALS
# end every cell with zero unrecovered spans and bounded p99 latency.
run "$BIN/experiments" e13 --fast --trace "$OUT/e13_trace.json" \
    | tee "$OUT/e13.log"
grep -q "\[OK\]" "$OUT/e13.log" || fail "e13 in-report asserts did not pass"
grep -q "unrecovered" "$OUT/e13.log" || fail "e13 report lost its recovery table"
# Episode onsets ride the trace as checker-aware fault markers.
run "$BIN/trace_check" "$OUT/e13_trace.json"
grep -q "episode_onset" "$OUT/e13_trace.json.txt" \
    || fail "e13 trace must carry episode_onset markers"
echo "==> e13 recovery asserts hold and its episode trace checks out"

# --- Process chaos: kill -9 a shard of the episode grid --------------
# The fast design-space manifest includes the trix/pals episode cells,
# so the killed-and-resumed trials cover the episode machinery too.
MANIFEST="$OUT/manifest.json"
run "$BIN/explore" --fast --seed 13 --trials 8 --shards 2 --checkpoint-every 3 \
    --emit-manifest "$MANIFEST"
grep -q '"trix"' "$MANIFEST" || fail "manifest must include trix episode cells"
grep -q '"pals"' "$MANIFEST" || fail "manifest must include pals episode cells"

# Uninterrupted single-process baseline.
run "$BIN/sweep_shard" --manifest "$MANIFEST" --single --out "$OUT/single.json" \
    --threads 4

# Shard 0 runs to completion; shard 1 is throttled and killed -9 as
# soon as its first vitals line lands.
run "$BIN/sweep_shard" --manifest "$MANIFEST" --shard 0 --dir "$OUT/shards" --threads 2
echo "==> starting throttled shard 1 and killing it mid-range"
"$BIN/sweep_shard" --manifest "$MANIFEST" --shard 1 --dir "$OUT/shards" \
    --throttle-ms 30 >"$OUT/shard1_first.log" 2>&1 &
SHARD_PID=$!
VITALS="$OUT/shards/shard-1.vitals"
for _ in $(seq 1 200); do
    [ -s "$VITALS" ] && break
    kill -0 "$SHARD_PID" 2>/dev/null || fail "shard 1 exited before its first vitals line"
    sleep 0.05
done
[ -s "$VITALS" ] || fail "shard 1 never wrote its vitals"
kill -9 "$SHARD_PID" 2>/dev/null || true
wait "$SHARD_PID" 2>/dev/null || true

# The killed shard's vitals line count is frozen: the --status double
# read (two line counts --probe-ms apart) must downgrade it from
# active to interrupted.
LAST_VITALS=$(tail -n 1 "$VITALS")
grep -q '"trials_per_sec"' <<<"$LAST_VITALS" || fail "last vitals line is missing trials_per_sec"
grep -q '"eta_ms"' <<<"$LAST_VITALS" || fail "last vitals line is missing eta_ms"
run "$BIN/sweep_shard" --manifest "$MANIFEST" --status --dir "$OUT/shards" \
    --probe-ms 200 | tee "$OUT/status_mid.log"
grep -Eq "^1 .* interrupted$" "$OUT/status_mid.log" \
    || fail "--status must show the killed shard as interrupted"
echo "==> frozen vitals line count reported as interrupted"

# Resume from the checkpoint and finish; the last vitals line covers
# the range, no temp file or old heartbeat is left, and --status shows
# a fully done sweep.
run "$BIN/sweep_shard" --manifest "$MANIFEST" --shard 1 --dir "$OUT/shards" \
    | tee "$OUT/shard1_resume.log"
grep -q "resumed at" "$OUT/shard1_resume.log" \
    || fail "resumed shard must report its checkpoint position"
read -r LO HI DONE < <(tail -n 1 "$VITALS" \
    | sed -E 's/.*"lo":([0-9]+),"hi":([0-9]+),"completed":([0-9]+).*/\1 \2 \3/')
[ "$DONE" -eq "$((HI - LO))" ] || fail "last vitals line must cover shard 1's range"
STRAYS=$(find "$OUT/shards" -name '*.tmp' -o -name '*.hb.json')
[ -z "$STRAYS" ] || fail "finished shards left stray files: $STRAYS"
run "$BIN/sweep_shard" --manifest "$MANIFEST" --status --dir "$OUT/shards" \
    | tee "$OUT/status_done.log"
grep -q "(100.0%)" "$OUT/status_done.log" \
    || fail "--status must report the sweep 100% complete"
! grep -Eq " (active|interrupted|pending)$" "$OUT/status_done.log" \
    || fail "--status must show no live or interrupted shards after completion"

# Kill/resume must be invisible in the merged bytes.
run "$BIN/sweep_shard" --manifest "$MANIFEST" --merge --dir "$OUT/shards" \
    --out "$OUT/merged.json"
cmp "$OUT/single.json" "$OUT/merged.json" \
    || fail "merged report differs from the single-process baseline"
echo "==> killed + resumed episode sweep merges byte-identically"

echo "==> chaos smoke passed"

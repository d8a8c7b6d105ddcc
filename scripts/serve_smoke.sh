#!/usr/bin/env bash
# Serve smoke: boot a sim_serve on an ephemeral port, drive it with
# sim_loadgen cold then hot, check the cache actually hit, snapshot
# BENCH_serve.json through the regression gate, and prove the server
# drains cleanly when its stdin closes.
#
# Also scrapes the live telemetry plane through sim_top (JSON body and
# table) and asserts the SLO accounting is present.
#
# Usage: scripts/serve_smoke.sh [BIN_DIR]
#   BIN_DIR   directory holding sim_serve/sim_loadgen/sim_top/
#             bench_regress (default target/release)
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release}"
OUT=target/bench
mkdir -p "$OUT"
PORT_FILE="$OUT/serve_smoke.port"
SERVE_LOG="$OUT/serve_smoke.log"
rm -f "$PORT_FILE"

# A FIFO held open on fd 9 is the server's stdin; closing fd 9 at the
# end is the graceful-drain trigger (stdin-close, no signals needed).
FIFO=$(mktemp -u "${TMPDIR:-/tmp}/serve_smoke.XXXXXX.fifo")
mkfifo "$FIFO"
"$BIN/sim_serve" --port 0 --port-file "$PORT_FILE" --workers 4 --queue 32 \
    --drain-on-stdin-close <"$FIFO" 2>"$SERVE_LOG" &
SERVE_PID=$!
exec 9>"$FIFO"
rm -f "$FIFO"

fail() {
    echo "serve_smoke: $*" >&2
    sed 's/^/  serve log: /' "$SERVE_LOG" >&2 || true
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
}

# Wait for the ephemeral port to land in the port file.
for _ in $(seq 1 100); do
    [ -s "$PORT_FILE" ] && break
    kill -0 "$SERVE_PID" 2>/dev/null || fail "server exited before binding"
    sleep 0.1
done
[ -s "$PORT_FILE" ] || fail "server never wrote $PORT_FILE"
PORT=$(cat "$PORT_FILE")
ADDR="127.0.0.1:$PORT"
echo "==> sim_serve up on $ADDR (pid $SERVE_PID)"

# Cold pass: mixed hot/cold plan against an empty cache. 32 conns vs 4
# workers is the concurrency floor the subsystem promises to sustain.
echo "==> loadgen cold pass"
"$BIN/sim_loadgen" --addr "$ADDR" --conns 32 --requests 96 \
    --hot-ratio 0.75 --hot-keys 3 --experiments e2,e3 --seed 1 --trials 2 \
    || fail "cold loadgen pass failed"

# Hot pass: identical plan, now warm — and snapshot it for the gate.
echo "==> loadgen hot pass"
HOT_OUT=$("$BIN/sim_loadgen" --addr "$ADDR" --conns 32 --requests 96 \
    --hot-ratio 0.75 --hot-keys 3 --experiments e2,e3 --seed 1 --trials 2 \
    --json "$OUT/BENCH_serve.json") || fail "hot loadgen pass failed"
echo "$HOT_OUT"

# The warm pass must actually hit the cache.
HITS=$(echo "$HOT_OUT" | sed -n 's/.*cache_hits=\([0-9]*\).*/\1/p')
[ -n "$HITS" ] || fail "could not parse cache_hits from loadgen output"
[ "$HITS" -gt 0 ] || fail "warm pass recorded zero cache hits"
echo "==> warm pass hit the cache $HITS times"

# The load generator reports its client-side SLO accounting.
echo "$HOT_OUT" | grep -q "slo: attainment=" \
    || fail "loadgen output is missing the SLO summary line"

# Scrape the live telemetry plane: the JSON body carries the SLO
# state and the gauges, and the table renders. Two back-to-back quiet
# scrapes must be byte-identical — scraping never samples.
echo "==> sim_top metrics scrapes"
METRICS=$("$BIN/sim_top" --addr "$ADDR" --once --format json) \
    || fail "sim_top JSON scrape failed"
for field in '"schema":"vlsi-sync/serve-metrics"' '"slo_policy"' \
    '"attainment"' '"latency_burn_rate"' '"error_burn_rate"' '"healthy"' \
    '"gauges":{"queue_depth":'; do
    echo "$METRICS" | grep -qF "$field" \
        || fail "metrics JSON is missing $field"
done
METRICS2=$("$BIN/sim_top" --addr "$ADDR" --once --format json) \
    || fail "second sim_top scrape failed"
[ "$METRICS" = "$METRICS2" ] || fail "quiet metrics scrapes must be byte-identical"
"$BIN/sim_top" --addr "$ADDR" --once | grep -q "^gauges:" \
    || fail "sim_top table render is missing its gauges line"
echo "==> telemetry plane scrapes cleanly (SLO fields present)"

# Requests carry no fault_rates field: a run line that sends one is
# answered with the unknown-field error, and the same connection keeps
# serving.
echo "==> run line with a fault_rates field"
exec 8<>"/dev/tcp/127.0.0.1/$PORT"
printf '%s\n' '{"op":"run","experiment":"e2","fault_rates":{}}' >&8
read -r -t 30 REFUSAL <&8 || fail "no answer to the fault_rates run line"
echo "$REFUSAL" | grep -qF 'unknown request field `fault_rates`' \
    || fail "fault_rates answer does not name the unknown field: $REFUSAL"
printf '%s\n' '{"op":"ping"}' >&8
read -r -t 30 PONG <&8 || fail "no answer to ping after the refusal"
echo "$PONG" | grep -qF '"status":"ok"' || fail "server stopped serving: $PONG"
exec 8>&-

# The metrics op takes no field but `op`: a line asking for the retired
# Prometheus format is answered malformed, naming `format`, and the
# same connection keeps serving.
echo "==> metrics line with a format field"
exec 8<>"/dev/tcp/127.0.0.1/$PORT"
printf '%s\n' '{"op":"metrics","format":"prom"}' >&8
read -r -t 30 REFUSAL <&8 || fail "no answer to the metrics format line"
echo "$REFUSAL" | grep -qF '"status":"malformed"' \
    || fail "metrics format line was not answered malformed: $REFUSAL"
echo "$REFUSAL" | grep -qF 'unknown metrics field `format`' \
    || fail "metrics format answer does not name the field: $REFUSAL"
printf '%s\n' '{"op":"ping"}' >&8
read -r -t 30 PONG <&8 || fail "no answer to ping after the metrics refusal"
echo "$PONG" | grep -qF '"status":"ok"' || fail "server stopped serving: $PONG"
exec 8>&-

# So do ping and shutdown: each line with an extra field is answered
# malformed, naming the field; the shutdown line must not start a drain,
# so a ping on the same connection still answers ok.
echo "==> ping and shutdown lines with extra fields"
exec 8<>"/dev/tcp/127.0.0.1/$PORT"
for line in '{"op":"ping","bogus":1}|unknown ping field `bogus`' \
            '{"op":"shutdown","now":true}|unknown shutdown field `now`'; do
    printf '%s\n' "${line%%|*}" >&8
    read -r -t 30 REFUSAL <&8 || fail "no answer to ${line%%|*}"
    echo "$REFUSAL" | grep -qF '"status":"malformed"' \
        || fail "${line%%|*} was not answered malformed: $REFUSAL"
    echo "$REFUSAL" | grep -qF "${line#*|}" \
        || fail "${line%%|*} answer does not name the field: $REFUSAL"
done
printf '%s\n' '{"op":"ping"}' >&8
read -r -t 30 PONG <&8 || fail "no answer to ping after the bodyless-op refusals"
echo "$PONG" | grep -qF '"status":"ok"' || fail "server stopped serving: $PONG"
exec 8>&-

# Snapshot through the same regression gate the experiments use:
# config/mix exact, run structural.
echo "==> bench_regress --compare BENCH_serve.json"
"$BIN/bench_regress" --compare "$OUT/BENCH_serve.json" --baselines baselines \
    || fail "BENCH_serve.json drifted from the committed baseline"

# Graceful drain: close the server's stdin and expect a clean exit.
echo "==> closing server stdin (graceful drain)"
exec 9>&-
for _ in $(seq 1 100); do
    kill -0 "$SERVE_PID" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$SERVE_PID" 2>/dev/null; then
    fail "server did not drain within 10s of stdin close"
fi
wait "$SERVE_PID" || fail "server exited nonzero after drain"
grep -q "drained cleanly" "$SERVE_LOG" || fail "server log is missing the clean-drain marker"

echo "==> serve smoke passed"

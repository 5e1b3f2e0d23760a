#!/usr/bin/env bash
# Crash-recovery smoke test: serve with a data directory, let the
# walkthrough create a durable session and ingest into it, SIGKILL the
# server, restart it over the same directory, and diff the recovered
# /v1/sessions/s1/report against the pre-kill snapshot. Exercises the
# full stack the way an operator would meet it: no in-process shortcuts,
# a real process killed with no shutdown courtesy.
#
# Usage: scripts/crash_smoke.sh [port]
set -euo pipefail

PORT="${1:-8341}"
BASE="http://127.0.0.1:${PORT}"
DATA_DIR="$(mktemp -d)"
LOG_DIR="$(mktemp -d)"
SERVER_PID=""

cleanup() {
    [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
    rm -rf "$DATA_DIR" "$LOG_DIR"
}
trap cleanup EXIT

# Builds once up front, then runs the binary directly: SIGKILL must hit
# the server process itself, not a `cargo run` wrapper.
cargo build --release --example serve
SERVE_BIN="$(cargo metadata --format-version 1 --no-deps 2>/dev/null |
    grep -o '"target_directory":"[^"]*"' | head -1 | cut -d'"' -f4)/release/examples/serve"
[ -x "$SERVE_BIN" ] || SERVE_BIN="target/release/examples/serve"

start_server() { # $1 = log file
    DOD_LISTEN="127.0.0.1:${PORT}" DOD_DATA_DIR="$DATA_DIR" DOD_SERVE_SECS=600 \
        "$SERVE_BIN" >"$LOG_DIR/$1" 2>&1 &
    SERVER_PID=$!
}

wait_for() { # $1 = path, $2 = description
    for _ in $(seq 1 120); do
        if curl -sf "${BASE}$1" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.5
    done
    echo "timed out waiting for $2" >&2
    cat "$LOG_DIR"/*.log >&2 || true
    exit 1
}

echo "== life 1: serve with data dir ${DATA_DIR}, walkthrough ingests =="
start_server life1.log
wait_for /healthz "the server to come up"
# The walkthrough creates the durable session (s1) and ingests 400
# points into it; "server stays up" marks the walkthrough complete.
for _ in $(seq 1 240); do
    grep -q "server stays up" "$LOG_DIR/life1.log" && break
    sleep 0.5
done
grep -q "server stays up" "$LOG_DIR/life1.log" || {
    echo "walkthrough did not finish" >&2
    cat "$LOG_DIR/life1.log" >&2
    exit 1
}

curl -sf "${BASE}/v1/sessions/s1" | grep -q '"durable":true' || {
    echo "walkthrough session is not durable" >&2
    exit 1
}
curl -sf "${BASE}/v1/sessions/s1/report" >"$LOG_DIR/report_before.json"
echo "pre-kill report: $(head -c 120 "$LOG_DIR/report_before.json")..."

echo "== SIGKILL =="
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "== life 2: restart over the same data dir =="
start_server life2.log
wait_for /healthz "the restarted server"
wait_for /v1/sessions/s1 "the recovered session"

curl -sf "${BASE}/v1/sessions/s1/report" >"$LOG_DIR/report_after.json"
if ! diff "$LOG_DIR/report_before.json" "$LOG_DIR/report_after.json"; then
    echo "FAIL: recovered report differs from the pre-kill snapshot" >&2
    exit 1
fi
grep -q 'dod_wal_replayed_records_total{session="s1"}' <(curl -sf "${BASE}/metrics") || {
    echo "FAIL: /metrics lacks WAL replay counters for s1" >&2
    exit 1
}
echo "OK: post-restart /v1/sessions/s1/report is byte-identical to the pre-kill snapshot"

echo "== life 2 continued: acked-only batch, then SIGKILL with no barrier =="
# The ack-is-durability contract, with nothing to hide behind: ingest one
# full window (the session's window is count=256) with three planted far
# points and SIGKILL the moment the 200 lands — no report request,
# nothing that would flush the pipeline as a side effect. The ack itself
# is the only promise the points get.
#
# The walkthrough ingested exactly 400 points (seqs 0..399), so this
# batch is seqs 400..655 and the planted indices 10/100/200 are global
# seqs 410/500/600 — the exact post-restart outlier set: the identical
# cluster points all have 252 neighbors within r, and each far point has
# only the other two (< k=4).
PTS=""
for i in $(seq 0 255); do
    case $i in
    10 | 100 | 200) P="[1000.0,1000.0]" ;;
    *) P="[0.5,0.5]" ;;
    esac
    PTS="${PTS:+$PTS,}$P"
done
ACK="$(curl -sf -X POST "${BASE}/v1/sessions/s1/ingest" -d "{\"points\":[$PTS]}")"
echo "ingest ack: $ACK"
echo "$ACK" | grep -q '"durable":true' || {
    echo "FAIL: durable ingest ack did not promise durability" >&2
    exit 1
}

kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

echo "== life 3: the acked batch must be there =="
start_server life3.log
wait_for /healthz "the re-restarted server"
wait_for /v1/sessions/s1 "the re-recovered session"
REPORT="$(curl -sf "${BASE}/v1/sessions/s1/report")"
if [ "$REPORT" != '{"outliers":[410,500,600]}' ]; then
    echo "FAIL: acked batch lost or mangled; report: $REPORT" >&2
    exit 1
fi
echo "OK: acked-only batch survived SIGKILL; planted outliers recovered"

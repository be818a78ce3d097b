#!/bin/sh
# opprox-serve retrain smoke: the online retraining drill against a real
# server, at the default drift and retrain thresholds. A model drifts,
# the proactive controller starts correcting served budgets,
# POST /v1/retrain replays the rotated telemetry log and dark-launches a
# retrained shadow, further drifted feedback auto-promotes it, and a
# rollback restores the original version. Every request in the drill
# must stay under 500 — retraining never takes the serving path down.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
cleanup() {
    if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/opprox" ./cmd/opprox
go build -o "$tmp/opprox-serve" ./cmd/opprox-serve

mkdir "$tmp/models"
"$tmp/opprox" -app pso -phases 2 -budget 10 -save "$tmp/models/pso.json" >/dev/null

# The address poll below reads the log; create it first, since the
# background redirect may not have opened it yet.
: >"$tmp/serve.log"
# A tiny rotation size so the drill exercises segment replay.
"$tmp/opprox-serve" -addr 127.0.0.1:0 -models "$tmp/models" \
    -feedback-log "$tmp/telemetry.jsonl" -feedback-log-max-bytes 2048 \
    -retrain -proactive \
    2>"$tmp/serve.log" &
pid=$!

addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's|.*listening on http://\([^ ]*\).*|\1|p' "$tmp/serve.log")
    if [ -n "$addr" ]; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "retrain-smoke: server died during startup:" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr" ] || {
    echo "retrain-smoke: server never reported its address" >&2
    cat "$tmp/serve.log" >&2
    exit 1
}
echo "retrain-smoke: server on $addr"

# Not -f: the drill asserts on statuses; 5xx anywhere fails it.
post() { # path body
    curl -s -D "$tmp/headers" -X POST -H 'Content-Type: application/json' \
        -d "$2" "http://$addr$1"
}
status_of() { sed -n '1s/.* \([0-9][0-9][0-9]\).*/\1/p' "$tmp/headers"; }
no5xx() {
    case "$(status_of)" in
        5*) echo "retrain-smoke: $1 returned $(status_of)" >&2; exit 1 ;;
    esac
}

body='{"app": "pso", "budget": 10, "model_path": "pso.json"}'
resp=$(post /v1/dispatch "$body")
no5xx /v1/dispatch
dispatch_id=$(echo "$resp" | sed -n 's/.*"dispatch_id":"\([^"]*\)".*/\1/p')
v0=$(echo "$resp" | sed -n 's/.*"model_version":"\([^"]*\)".*/\1/p')
[ -n "$dispatch_id" ] && [ -n "$v0" ] || {
    echo "retrain-smoke: dispatch response incomplete: $resp" >&2; exit 1; }

# Drifted feedback: 16 reports x 2 phases = the 32 telemetry rows a
# retrain needs by default.
fb="{\"dispatch_id\": \"$dispatch_id\", \"observations\": [
  {\"phase\": 0, \"realized_speedup\": 10, \"realized_degradation\": 5},
  {\"phase\": 1, \"realized_speedup\": 10, \"realized_degradation\": 5}]}"
i=0
while [ $i -lt 16 ]; do
    post /v1/feedback "$fb" >/dev/null
    no5xx /v1/feedback
    i=$((i + 1))
done

# The proactive controller corrects the next dispatch's budget.
resp=$(post /v1/dispatch "$body")
no5xx /v1/dispatch
grep -qi '^x-opprox-correction:' "$tmp/headers" || {
    echo "retrain-smoke: drifted model dispatch carries no budget correction" >&2
    cat "$tmp/headers" >&2
    exit 1
}
echo "retrain-smoke: proactive correction active"

# The telemetry log rotated under the tiny size cap.
ls "$tmp"/telemetry.jsonl.?????? >/dev/null 2>&1 || {
    echo "retrain-smoke: feedback log never rotated" >&2; exit 1; }

# Retrain: replay the rotated log, fit candidates, dark-launch the winner.
resp=$(post /v1/retrain '{"model": "pso.json"}')
no5xx /v1/retrain
echo "$resp" | grep -q '"status":"shadow_created"' || {
    echo "retrain-smoke: retrain did not dark-launch: $resp" >&2; exit 1; }
shadow=$(echo "$resp" | sed -n 's/.*"shadow_version":"\([^"]*\)".*/\1/p')
[ -n "$shadow" ] || {
    echo "retrain-smoke: retrain response has no shadow version: $resp" >&2; exit 1; }
echo "retrain-smoke: retrained shadow $shadow dark-launched"

# Further drifted feedback is comparison evidence; the retrained shadow
# wins and auto-promotes once both windows hold 8 samples (4 reports).
promoted=""
i=0
while [ $i -lt 12 ]; do
    resp=$(post /v1/feedback "$fb")
    no5xx /v1/feedback
    if echo "$resp" | grep -q '"promoted":true'; then promoted=yes; break; fi
    i=$((i + 1))
done
[ -n "$promoted" ] || {
    echo "retrain-smoke: retrained shadow never auto-promoted: $resp" >&2; exit 1; }

resp=$(curl -sf "http://$addr/v1/models")
echo "$resp" | grep -q "\"live_version\":\"$shadow\"" || {
    echo "retrain-smoke: /v1/models did not flip to the retrained version: $resp" >&2; exit 1; }
echo "retrain-smoke: retrained model promoted to live"

# The promote reset the controller: the next dispatch is uncorrected.
resp=$(post /v1/dispatch "$body")
no5xx /v1/dispatch
if grep -qi '^x-opprox-correction:' "$tmp/headers"; then
    echo "retrain-smoke: budget correction survived the promote" >&2
    exit 1
fi

# One-step rollback restores the original version.
resp=$(post /v1/rollback '{"model": "pso.json"}')
no5xx /v1/rollback
echo "$resp" | grep -q "\"live_version\":\"$v0\"" || {
    echo "retrain-smoke: rollback did not restore $v0: $resp" >&2; exit 1; }

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "retrain-smoke: server exited non-zero on SIGTERM" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
pid=""

echo "retrain-smoke: ok (drift -> correction -> rotated-log retrain -> shadow -> auto-promote -> rollback)"

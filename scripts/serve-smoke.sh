#!/bin/sh
# opprox-serve smoke: build the binaries, train a small model set, start
# the server on an ephemeral port, exercise one healthy dispatch and one
# degraded dispatch (missing model file), check /healthz, then drive the
# closed loop: drifted feedback flips the model to drifting, POST
# /v1/retrain dark-launches a retrained shadow, a manual promote makes
# it live, a rollback restores the original. Finally shut down cleanly
# with SIGTERM.
# Everything runs out of a throwaway directory.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pid=""
pid2=""
pid3=""
cleanup() {
    if [ -n "$pid" ]; then kill "$pid" 2>/dev/null || true; fi
    if [ -n "$pid2" ]; then kill "$pid2" 2>/dev/null || true; fi
    if [ -n "$pid3" ]; then kill "$pid3" 2>/dev/null || true; fi
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/opprox" ./cmd/opprox
go build -o "$tmp/opprox-serve" ./cmd/opprox-serve

# The flag set is pinned: adding or removing a flag is an edit here.
want_flags='addr auto-promote client-burst client-rate failure-limit feedback-log feedback-log-max-bytes global-rate lockout metrics models proactive retrain shard-replicas shard-self timeout'
flags=$("$tmp/opprox-serve" -h 2>&1 | sed -n 's/^  -\([^ ]*\).*/\1/p' | LC_ALL=C sort | tr '\n' ' ')
[ "${flags% }" = "$want_flags" ] || {
    echo "serve-smoke: opprox-serve flags changed:" >&2
    echo "  got:  ${flags% }" >&2
    echo "  want: $want_flags" >&2
    exit 1; }
# A flag that only tunes an unset companion flag fails startup (the
# timeout ends a server that started anyway, and fails the check).
rc=0
msg=$(timeout 10 "$tmp/opprox-serve" -addr 127.0.0.1:0 -lockout 5s 2>&1) || rc=$?
case "$rc:$msg" in
1:*"-lockout requires -failure-limit"*) ;;
*) echo "serve-smoke: -lockout without -failure-limit did not fail startup (exit $rc): $msg" >&2; exit 1 ;;
esac

mkdir "$tmp/models"
"$tmp/opprox" -app pso -phases 2 -budget 10 -save "$tmp/models/pso.json" >/dev/null

# The address poll below reads the log; create it first, since the
# background redirect may not have opened it yet.
: >"$tmp/serve.log"
# Default drift and retrain thresholds; auto-promotion off so the manual
# /v1/promote path is what the smoke exercises.
"$tmp/opprox-serve" -addr 127.0.0.1:0 -models "$tmp/models" \
    -auto-promote=false -feedback-log "$tmp/telemetry.jsonl" -retrain \
    2>"$tmp/serve.log" &
pid=$!

# The server prints its ephemeral address on the "listening on" line.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's|.*listening on http://\([^ ]*\).*|\1|p' "$tmp/serve.log")
    if [ -n "$addr" ]; then break; fi
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: server died during startup:" >&2
        cat "$tmp/serve.log" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "serve-smoke: server never reported its address" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi

echo "serve-smoke: server on $addr"

curl -sf "http://$addr/healthz" | grep -q '"status":"ok"' || {
    echo "serve-smoke: healthz failed" >&2; exit 1; }

body='{"app": "pso", "budget": 10, "model_path": "pso.json"}'
resp=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "http://$addr/v1/dispatch")
echo "$resp" | grep -q '"degraded":false' || {
    echo "serve-smoke: healthy dispatch degraded or failed: $resp" >&2; exit 1; }
echo "$resp" | grep -q 'OPPROX_PHASES=2' || {
    echo "serve-smoke: dispatch env missing phase count: $resp" >&2; exit 1; }

body='{"app": "pso", "budget": 10, "model_path": "no-such-model.json"}'
resp=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "http://$addr/v1/dispatch")
echo "$resp" | grep -q '"degraded":true' || {
    echo "serve-smoke: missing model did not degrade: $resp" >&2; exit 1; }
echo "$resp" | grep -q '"predicted_speedup":1' || {
    echo "serve-smoke: degraded dispatch is not the all-accurate schedule: $resp" >&2; exit 1; }

# --- closed loop: feedback -> drift -> retrain -> shadow -> promote -> rollback ---

body='{"app": "pso", "budget": 10, "model_path": "pso.json"}'
resp=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "http://$addr/v1/dispatch")
dispatch_id=$(echo "$resp" | sed -n 's/.*"dispatch_id":"\([^"]*\)".*/\1/p')
[ -n "$dispatch_id" ] || {
    echo "serve-smoke: dispatch response has no dispatch_id: $resp" >&2; exit 1; }
v0=$(echo "$resp" | sed -n 's/.*"model_version":"\([^"]*\)".*/\1/p')
[ -n "$v0" ] || {
    echo "serve-smoke: dispatch response has no model_version: $resp" >&2; exit 1; }

# Synthetic drift: realized values far off the predictions. 16 reports
# x 2 phases log the 32 telemetry rows a retrain needs by default.
fb="{\"dispatch_id\": \"$dispatch_id\", \"observations\": [
  {\"phase\": 0, \"realized_speedup\": 10, \"realized_degradation\": 5},
  {\"phase\": 1, \"realized_speedup\": 10, \"realized_degradation\": 5}]}"
i=0
while [ $i -lt 16 ]; do
    resp=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$fb" "http://$addr/v1/feedback")
    echo "$resp" | grep -q '"state":"drifting"' || {
        echo "serve-smoke: drifted feedback did not flip the model: $resp" >&2; exit 1; }
    i=$((i + 1))
done

resp=$(curl -sf "http://$addr/v1/models")
echo "$resp" | grep -q '"health":"drifting"' || {
    echo "serve-smoke: /v1/models does not show drift: $resp" >&2; exit 1; }
if echo "$resp" | grep -q '"shadow":{'; then
    echo "serve-smoke: drift alone dark-launched a shadow: $resp" >&2; exit 1
fi

resp=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"model": "pso.json"}' "http://$addr/v1/retrain")
echo "$resp" | grep -q '"status":"shadow_created"' || {
    echo "serve-smoke: retrain did not dark-launch a shadow: $resp" >&2; exit 1; }
resp=$(curl -sf "http://$addr/v1/models")
echo "$resp" | grep -q '"shadow":{' || {
    echo "serve-smoke: /v1/models does not show the shadow: $resp" >&2; exit 1; }

resp=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"model": "pso.json"}' "http://$addr/v1/promote")
v1=$(echo "$resp" | sed -n 's/.*"live_version":"\([^"]*\)".*/\1/p')
[ -n "$v1" ] && [ "$v1" != "$v0" ] || {
    echo "serve-smoke: promote did not change the live version: $resp" >&2; exit 1; }

resp=$(curl -sf "http://$addr/v1/models")
echo "$resp" | grep -q "\"live_version\":\"$v1\"" || {
    echo "serve-smoke: /v1/models did not flip to the promoted version: $resp" >&2; exit 1; }

resp=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"model": "pso.json"}' "http://$addr/v1/rollback")
echo "$resp" | grep -q "\"live_version\":\"$v0\"" || {
    echo "serve-smoke: rollback did not restore the original version: $resp" >&2; exit 1; }

[ -s "$tmp/telemetry.jsonl" ] || {
    echo "serve-smoke: feedback telemetry log is empty" >&2; exit 1; }

# --- Pareto-front plan library: every trained model carries its library
# in the file, and a second server loading the same file imports it.
# Both servers must serve the same plan (volatile ids stripped).
plan_of() {
    echo "$1" | sed -e 's/"dispatch_id":"[^"]*",\{0,1\}//' \
        -e 's/"model_version":"[^"]*",\{0,1\}//'
}

grep -q '"front_library"' "$tmp/models/pso.json" || {
    echo "serve-smoke: trained model carries no persisted library" >&2; exit 1; }
body='{"app": "pso", "budget": 10, "model_path": "pso.json"}'
resp=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "http://$addr/v1/dispatch")
plain_plan=$(plan_of "$resp")

: >"$tmp/serve2.log"
"$tmp/opprox-serve" -addr 127.0.0.1:0 -models "$tmp/models" \
    2>"$tmp/serve2.log" &
pid2=$!
addr2=""
i=0
while [ $i -lt 100 ]; do
    addr2=$(sed -n 's|.*listening on http://\([^ ]*\).*|\1|p' "$tmp/serve2.log")
    if [ -n "$addr2" ]; then break; fi
    if ! kill -0 "$pid2" 2>/dev/null; then
        echo "serve-smoke: second server died during startup:" >&2
        cat "$tmp/serve2.log" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr2" ] || {
    echo "serve-smoke: second server never reported its address" >&2; exit 1; }
body='{"app": "pso", "budget": 10, "model_path": "pso.json"}'
resp=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "http://$addr2/v1/dispatch")
echo "$resp" | grep -q '"degraded":false' || {
    echo "serve-smoke: second-server dispatch degraded or failed: $resp" >&2; exit 1; }
[ "$(plan_of "$resp")" = "$plain_plan" ] || {
    echo "serve-smoke: second-server plan differs from the first server's: $resp" >&2; exit 1; }
kill -TERM "$pid2"
if ! wait "$pid2"; then
    echo "serve-smoke: second server exited non-zero on SIGTERM" >&2
    cat "$tmp/serve2.log" >&2
    exit 1
fi
pid2=""
echo "serve-smoke: persisted-library plans match across servers"

kill -TERM "$pid"
if ! wait "$pid"; then
    echo "serve-smoke: server exited non-zero on SIGTERM" >&2
    cat "$tmp/serve.log" >&2
    exit 1
fi
pid=""

: >"$tmp/serve3.log"
# --- overload drill: admission control + the degradation ladder ---
# A third server with a tiny per-client budget and a lockout. The drill
# first bursts past the token bucket (429 + Retry-After), then walks the
# degradation ladder deterministically via POST /v1/admission and checks
# each rung's body is byte-deterministic: cached plans keep serving,
# a coarse body equals the plain body at the quantized budget, the
# step-2 fallback is the constant all-accurate schedule, and step 3
# sheds uncached dispatches with 429 before any rate-limit rejection.
"$tmp/opprox-serve" -addr 127.0.0.1:0 -models "$tmp/models" \
    -client-rate 0.001 -client-burst 25 \
    -failure-limit 3 -lockout 60s \
    2>"$tmp/serve3.log" &
pid3=$!
addr3=""
i=0
while [ $i -lt 100 ]; do
    addr3=$(sed -n 's|.*listening on http://\([^ ]*\).*|\1|p' "$tmp/serve3.log")
    if [ -n "$addr3" ]; then break; fi
    if ! kill -0 "$pid3" 2>/dev/null; then
        echo "serve-smoke: overload server died during startup:" >&2
        cat "$tmp/serve3.log" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr3" ] || {
    echo "serve-smoke: overload server never reported its address" >&2; exit 1; }

# Not -sf: the drill reads 4xx statuses and headers.
post3() { # path body [extra curl args...]
    path=$1; data=$2; shift 2
    curl -s -D "$tmp/headers" -X POST -H 'Content-Type: application/json' \
        "$@" -d "$data" "http://$addr3$path"
}
status_of() { sed -n '1s/.* \([0-9][0-9][0-9]\).*/\1/p' "$tmp/headers"; }
rung_of() { tr -d '\r' <"$tmp/headers" | sed -n 's/^[Xx]-[Oo]pprox-[Rr]ung: //p'; }

# Walk the ladder first, while the client still has tokens.
body10='{"app": "pso", "budget": 10, "model_path": "pso.json"}'
body12='{"app": "pso", "budget": 12, "model_path": "pso.json"}'
body40='{"app": "pso", "budget": 40, "model_path": "pso.json"}'

plan10=$(post3 /v1/dispatch "$body10")
[ "$(rung_of)" = "full" ] || {
    echo "serve-smoke: healthy dispatch rung $(rung_of), want full" >&2; exit 1; }

post3 /v1/admission '{"force_step": 1}' >/dev/null
resp=$(post3 /v1/dispatch "$body12")
[ "$(rung_of)" = "coarse" ] || {
    echo "serve-smoke: step-1 dispatch rung $(rung_of), want coarse" >&2; exit 1; }
[ "$resp" = "$plan10" ] || {
    echo "serve-smoke: coarse body differs from the quantized budget's plan" >&2
    echo "$resp" >&2; echo "$plan10" >&2; exit 1; }

post3 /v1/admission '{"force_step": 2}' >/dev/null
exact1=$(post3 /v1/dispatch "$body40")
[ "$(rung_of)" = "exact" ] || {
    echo "serve-smoke: step-2 dispatch rung $(rung_of), want exact" >&2; exit 1; }
echo "$exact1" | grep -q '"degraded":true' || {
    echo "serve-smoke: step-2 fallback not marked degraded: $exact1" >&2; exit 1; }
exact2=$(post3 /v1/dispatch "$body40")
[ "$exact1" = "$exact2" ] || {
    echo "serve-smoke: step-2 fallback not byte-deterministic" >&2; exit 1; }
resp=$(post3 /v1/dispatch "$body10")
[ "$(rung_of)" = "cached" ] && [ "$resp" = "$plan10" ] || {
    echo "serve-smoke: step-2 cache hit rung $(rung_of), body drifted" >&2; exit 1; }

post3 /v1/admission '{"force_step": 3}' >/dev/null
resp=$(post3 /v1/dispatch "$body40")
[ "$(status_of)" = "429" ] || {
    echo "serve-smoke: step-3 dispatch status $(status_of), want 429: $resp" >&2; exit 1; }
grep -qi '^retry-after:' "$tmp/headers" || {
    echo "serve-smoke: step-3 429 carries no Retry-After" >&2; exit 1; }
resp=$(post3 /v1/dispatch "$body10")
[ "$(status_of)" = "200" ] && [ "$resp" = "$plan10" ] || {
    echo "serve-smoke: cached plans must keep serving at step 3" >&2; exit 1; }

post3 /v1/admission '{"force_step": -1}' >/dev/null

# Burst past the per-client token bucket: degraded-but-served responses
# (the rungs above) come before flat rejection; once the bucket is dry
# every request is 429 + Retry-After.
got429=""
i=0
while [ $i -lt 40 ]; do
    post3 /v1/dispatch "$body10" >/dev/null
    if [ "$(status_of)" = "429" ]; then got429=yes; break; fi
    [ "$(status_of)" = "200" ] || {
        echo "serve-smoke: burst dispatch status $(status_of)" >&2; exit 1; }
    i=$((i + 1))
done
[ -n "$got429" ] || {
    echo "serve-smoke: burst never hit the rate limit" >&2; exit 1; }
grep -qi '^retry-after:' "$tmp/headers" || {
    echo "serve-smoke: rate-limit 429 carries no Retry-After" >&2; exit 1; }

# A different client identity still has its own budget.
resp=$(post3 /v1/dispatch "$body10" -H 'X-Opprox-Client: other')
[ "$(status_of)" = "200" ] || {
    echo "serve-smoke: fresh client rejected after another's burst: $resp" >&2; exit 1; }

# Invalid bodies lock a client out entirely.
i=0
while [ $i -lt 3 ]; do
    post3 /v1/dispatch '{broken' -H 'X-Opprox-Client: mallory' >/dev/null
    i=$((i + 1))
done
resp=$(post3 /v1/dispatch "$body10" -H 'X-Opprox-Client: mallory')
[ "$(status_of)" = "429" ] && echo "$resp" | grep -q 'locked_out' || {
    echo "serve-smoke: invalid-body client not locked out: $(status_of) $resp" >&2; exit 1; }

kill -TERM "$pid3"
if ! wait "$pid3"; then
    echo "serve-smoke: overload server exited non-zero on SIGTERM" >&2
    cat "$tmp/serve3.log" >&2
    exit 1
fi
pid3=""
echo "serve-smoke: overload drill ok (ladder rungs deterministic, 429 + Retry-After, lockout)"

echo "serve-smoke: ok (dispatch, degraded dispatch, drift -> retrain -> shadow -> promote -> rollback, overload drill, clean shutdown)"

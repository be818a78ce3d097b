#!/bin/sh
# Sharded-serving smoke: train a small model set, start a real 3-replica
# opprox-serve fleet (-shard-self/-shard-replicas), and drive the whole
# drill through a replica that does NOT own the model — so every step
# exercises the proxy/forwarding path:
#
#   - identical dispatch bodies from all three replicas (byte compare)
#   - /v1/cluster topology introspection
#   - drifted feedback forwarded to the owner, logged there
#   - proxied retrain -> shadow dark-launched on the owner
#   - proxied promote -> new version served by every replica
#   - proxied rollback -> every replica byte-identical to the original
#   - clean SIGTERM shutdown of the fleet
#
# Everything runs out of a throwaway directory on ports derived from the
# script's PID.
set -eu

cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
pids=""
cleanup() {
    for p in $pids; do kill "$p" 2>/dev/null || true; done
    rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

go build -o "$tmp/opprox" ./cmd/opprox
go build -o "$tmp/opprox-serve" ./cmd/opprox-serve

mkdir "$tmp/models"
"$tmp/opprox" -app pso -phases 2 -budget 10 -save "$tmp/models/pso.json" >/dev/null

# Replicas need each other's URLs before any of them binds, so the fleet
# runs on pre-chosen ports derived from this PID.
base=$((10000 + $$ % 40000))
pa=$base; pb=$((base + 1)); pc=$((base + 2))
replicas="a=http://127.0.0.1:$pa,b=http://127.0.0.1:$pb,c=http://127.0.0.1:$pc"

start_replica() { # name port
    "$tmp/opprox-serve" -addr "127.0.0.1:$2" -models "$tmp/models" \
        -shard-self "$1" -shard-replicas "$replicas" \
        -feedback-log "$tmp/telemetry-$1.jsonl" -retrain \
        -auto-promote=false \
        2>"$tmp/serve-$1.log" &
    pids="$pids $!"
}
start_replica a "$pa"
start_replica b "$pb"
start_replica c "$pc"

wait_up() { # name port
    i=0
    while [ $i -lt 100 ]; do
        if curl -sf "http://127.0.0.1:$2/healthz" >/dev/null 2>&1; then return 0; fi
        i=$((i + 1))
        sleep 0.1
    done
    echo "shard-smoke: replica $1 never came up:" >&2
    cat "$tmp/serve-$1.log" >&2
    exit 1
}
wait_up a "$pa"
wait_up b "$pb"
wait_up c "$pc"
echo "shard-smoke: fleet up on ports $pa/$pb/$pc"

body='{"app": "pso", "budget": 10, "model_path": "pso.json"}'
dispatch() { # port
    curl -sf -X POST -H 'Content-Type: application/json' -d "$body" "http://127.0.0.1:$1/v1/dispatch"
}

# Byte-identical dispatches from every replica: b owns pso.json under
# the fixed rendezvous hash, so a and c answer via a proxy hop.
ra=$(dispatch "$pa")
rb=$(dispatch "$pb")
rc=$(dispatch "$pc")
[ "$ra" = "$rb" ] && [ "$rb" = "$rc" ] || {
    echo "shard-smoke: replicas disagree on the same dispatch:" >&2
    printf 'a: %s\nb: %s\nc: %s\n' "$ra" "$rb" "$rc" >&2
    exit 1; }
echo "$ra" | grep -q '"degraded":false' || {
    echo "shard-smoke: dispatch degraded or failed: $ra" >&2; exit 1; }

# Topology introspection: every replica agrees the fleet is sharded and
# the owner (only the owner's registry holds the model it serves).
curl -sf "http://127.0.0.1:$pa/v1/cluster" | grep -q '"sharded":true' || {
    echo "shard-smoke: /v1/cluster does not report sharding" >&2; exit 1; }
curl -sf "http://127.0.0.1:$pb/v1/cluster" | \
    grep -q '"name":"pso.json","owner":"b","local":true' || {
    echo "shard-smoke: replica b does not own pso.json locally" >&2
    curl -sf "http://127.0.0.1:$pb/v1/cluster" >&2 || true
    exit 1; }

dispatch_id=$(echo "$ra" | sed -n 's/.*"dispatch_id":"\([^"]*\)".*/\1/p')
v0=$(echo "$ra" | sed -n 's/.*"model_version":"\([^"]*\)".*/\1/p')
[ -n "$dispatch_id" ] && [ -n "$v0" ] || {
    echo "shard-smoke: dispatch response missing id/version: $ra" >&2; exit 1; }

# Drifted feedback reported to non-owner a: a holds no record for the
# dispatch and must forward the report to the owner, which logs it. 16
# reports x 2 phases are the 32 telemetry rows a retrain needs.
fb="{\"dispatch_id\": \"$dispatch_id\", \"observations\": [
  {\"phase\": 0, \"realized_speedup\": 10, \"realized_degradation\": 5},
  {\"phase\": 1, \"realized_speedup\": 10, \"realized_degradation\": 5}]}"
i=0
while [ $i -lt 16 ]; do
    resp=$(curl -sf -X POST -H 'Content-Type: application/json' -d "$fb" "http://127.0.0.1:$pa/v1/feedback")
    echo "$resp" | grep -q '"state":"drifting"' || {
        echo "shard-smoke: forwarded feedback did not flip the model: $resp" >&2; exit 1; }
    i=$((i + 1))
done

# Proxied retrain through non-owner c: the owner replays its telemetry
# and dark-launches the winner.
resp=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"model": "pso.json"}' "http://127.0.0.1:$pc/v1/retrain")
echo "$resp" | grep -q '"status":"shadow_created"' || {
    echo "shard-smoke: proxied retrain did not dark-launch a shadow: $resp" >&2; exit 1; }

# Proxied promote through non-owner a.
resp=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"model": "pso.json"}' "http://127.0.0.1:$pa/v1/promote")
v1=$(echo "$resp" | sed -n 's/.*"live_version":"\([^"]*\)".*/\1/p')
[ -n "$v1" ] && [ "$v1" != "$v0" ] || {
    echo "shard-smoke: proxied promote did not change the live version: $resp" >&2; exit 1; }

# Version coherence after the swap: all replicas serve the promoted
# version, byte-identically.
ra=$(dispatch "$pa"); rb=$(dispatch "$pb"); rc=$(dispatch "$pc")
[ "$ra" = "$rb" ] && [ "$rb" = "$rc" ] || {
    echo "shard-smoke: replicas disagree after promote" >&2; exit 1; }
echo "$ra" | grep -q "\"model_version\":\"$v1\"" || {
    echo "shard-smoke: fleet still serves $v0 after promoting $v1: $ra" >&2; exit 1; }

# Proxied rollback through non-owner c, then every replica must be
# byte-identical to the original pre-promote response again.
resp=$(curl -sf -X POST -H 'Content-Type: application/json' \
    -d '{"model": "pso.json"}' "http://127.0.0.1:$pc/v1/rollback")
echo "$resp" | grep -q "\"live_version\":\"$v0\"" || {
    echo "shard-smoke: rollback did not restore $v0: $resp" >&2; exit 1; }
ra2=$(dispatch "$pa"); rb2=$(dispatch "$pb"); rc2=$(dispatch "$pc")
orig=$(dispatch "$pb")
[ "$ra2" = "$orig" ] && [ "$rb2" = "$orig" ] && [ "$rc2" = "$orig" ] || {
    echo "shard-smoke: replicas disagree after rollback" >&2; exit 1; }
echo "$ra2" | grep -q "\"model_version\":\"$v0\"" || {
    echo "shard-smoke: rollback did not restore version $v0 in dispatches: $ra2" >&2; exit 1; }

for p in $pids; do kill -TERM "$p"; done
for p in $pids; do
    if ! wait "$p"; then
        echo "shard-smoke: a replica exited non-zero on SIGTERM" >&2
        cat "$tmp"/serve-*.log >&2
        exit 1
    fi
done
pids=""

echo "shard-smoke: ok (3-replica fleet, proxied dispatch/feedback/retrain/promote/rollback, byte-identical across replicas)"

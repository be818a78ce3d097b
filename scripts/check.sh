#!/bin/sh
# Tier-1 gate: formatting, vet, the determinism/concurrency analyzers,
# build, and the full test suite under the race detector. CI and
# pre-merge both run exactly this script; if it passes locally it passes
# there.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== opprox-vet =="
# Fails on any unsuppressed finding at or above warning; the JSON report
# is written regardless, so a red run still leaves machine-readable
# findings behind.
echo "opprox-vet JSON report: opprox-vet.json"
make -s vet

echo "== opprox-scan =="
# Static approximable-block discovery over the whole module; informational
# (never fails on findings) but must run clean, and shares the
# .opprox-cache content-addressed cache with opprox-vet.
echo "opprox-scan JSON report: opprox-scan.json"
make -s scan

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== serving concurrency tests (-race -count=3) =="
# Every plan-cache miss plans on its request's own goroutine, so these
# are the tests a scheduling-dependent bug would flake: byte-identity
# under concurrent dispatch, the wedged-store bound, the 504 deadline
# path, and concurrent Optimize on one model against a serial pass.
go test -race -count=3 ./internal/serve \
    -run 'TestServingConformance|TestGateBoundsAbandonedGoroutines|TestServeRequestTimeout'
go test -race -count=3 ./internal/core -run 'TestOptimizeConcurrentMatchesSerial'

echo "== opprox-serve smoke =="
# Build the server, start it on an ephemeral port, run one dispatch and
# one degraded dispatch, shut down cleanly.
sh scripts/serve-smoke.sh

echo "== opprox-serve shard smoke =="
# Start a real 3-replica sharded fleet and drive dispatch, forwarded
# feedback, retrain, promote and rollback through a non-owner replica.
sh scripts/shard-smoke.sh

echo "== opprox-serve retrain smoke =="
# Drift a model, watch the proactive controller correct budgets, retrain
# from the rotated telemetry log, auto-promote the retrained shadow,
# roll back — with no 5xx anywhere in the drill.
sh scripts/retrain-smoke.sh

# Opt-in perf gate: BENCH=1 re-runs the kernel benchmark set and fails on
# a >20% ns/op regression against the committed trajectory file. Off by
# default because benchmark wall time dwarfs the rest of the gate and
# shared CI machines are noisy.
if [ "${BENCH:-0}" = "1" ]; then
    echo "== bench regression (>20% ns/op fails) =="
    go run ./cmd/opprox-bench -against "BENCH_${PR:-10}.json" -max 0.20
fi

# Size report: the two numbers the roadmap's north star tracks from
# change to change (informational; never fails the gate).
echo "== size =="
lines=$(find internal -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
flags=$(go run ./cmd/opprox-serve -h 2>&1 | grep -c '^  -')
echo "internal/ non-test Go lines: $lines"
echo "opprox-serve flags: $flags"

echo "check: all green"

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
# _perfbench is its own module (the end-to-end benchmark), so the root
# build skips it; it imports the serving API, so build and vet it too.
(cd _perfbench && go build -o /dev/null . && go vet .)

echo "== go test -race =="
go test -race ./...

echo "== serving concurrency tests (-race -count=3) =="
# Every plan-cache miss plans on its request's own goroutine, so these
# are the tests a scheduling-dependent bug would flake: byte-identity
# under concurrent dispatch, the wedged-store bound, the 504 deadline
# path, concurrent Optimize on one model against a serial pass, and
# concurrent Evaluate against a serial pass on the apps whose kernels
# hold data that runs must not write into together (comd's in-place
# force accumulators, vidpipe's frame table that clones share and its
# in-place filter outputs, tracker's particle double buffer).
go test -race -count=3 ./internal/serve \
    -run 'TestServingConformance|TestGateBoundsAbandonedGoroutines|TestServeRequestTimeout'
go test -race -count=3 ./internal/core -run 'TestOptimizeConcurrentMatchesSerial'
go test -race -count=3 ./internal/apps -run 'TestKernelsEvaluateConcurrent'

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

# Opt-in perf gate (~26 min on 2 vCPUs): BENCH=1 runs `make bench`, paired runs of the
# kernel benchmarks against HEAD~1 (cmd/opprox-ab); a worse verdict fails.
if [ "${BENCH:-0}" = "1" ]; then
    echo "== bench A/B against HEAD~1 =="
    make -s bench
fi

echo "== size =="
sh scripts/size.sh

echo "check: all green"

# Convenience wrappers; scripts/check.sh is the tier-1 gate CI runs.

.PHONY: build test check bench vet vet-json scan serve serve-smoke shard-smoke

build:
	go build ./...

test:
	go test ./...

check:
	sh scripts/check.sh

# bench: the working tree against HEAD~1 on the kernel benchmarks (cmd/opprox-ab).
bench:
	go run ./cmd/opprox-ab -base HEAD~1 -bench . ./internal/ml/linalg ./internal/ml/poly \
		./internal/ml/mic ./internal/ml/tree ./internal/core ./internal/feedback ./internal/serve \
		./internal/shard ./internal/admission ./internal/retrain ./internal/apps

# serve runs the dispatch service against the MODELS directory (default
# ./models). Train model files into it first, e.g.:
#   go run ./cmd/opprox -app pso -save models/pso.json
MODELS ?= models
serve:
	go run ./cmd/opprox-serve -models $(MODELS)

# serve-smoke is the standalone form of the check.sh smoke step: build,
# train a small model, one dispatch + one degraded dispatch, clean
# shutdown.
serve-smoke:
	sh scripts/serve-smoke.sh

# shard-smoke starts a real 3-replica sharded fleet and drives the whole
# lifecycle drill (dispatch, forwarded feedback, promote, rollback)
# through a replica that does not own the model.
shard-smoke:
	sh scripts/shard-smoke.sh

# vet runs the determinism/concurrency analyzers (internal/analysis) over
# the module and fails on any unsuppressed finding at or above warning.
# It always writes the machine-readable report to opprox-vet.json.
vet:
	go run ./cmd/opprox-vet -severity warning -out opprox-vet.json ./...

# vet-json emits only the JSON report on stdout (and still fails on
# findings), for machine consumption.
vet-json:
	go run ./cmd/opprox-vet -severity warning -json ./...

# scan runs static approximable-block discovery over the module and
# writes the ranked candidate report to opprox-scan.json. Both vet and
# scan cache per-package results under .opprox-cache/ keyed on content
# hashes, so warm runs re-analyze only what changed.
scan:
	go run ./cmd/opprox-scan -out opprox-scan.json ./...

# Targets mirror .github/workflows/ci.yml so local runs match the gate.

GO ?= go

.PHONY: all build test race bench perfbench bench-baseline bench-compare scaling-gate fuzz-smoke service-smoke lint ci api api-check

all: build

build:
	$(GO) build ./...
	$(GO) build ./examples/...

test:
	$(GO) test -shuffle=on ./...
	cd perfbench && $(GO) test .

race:
	$(GO) test -race ./internal/runner/... ./internal/eventq/... ./internal/fairshare/... ./internal/flowsim/... ./internal/simcore/... ./internal/simcore/shard/... ./internal/packetsim/... ./internal/hybrid/... ./internal/scenario/... ./internal/service/... ./internal/linkmodel/...
	$(GO) test -race -run 'TestParallel|TestE8Parallel|TestE6Shape|TestE10Parallel' ./internal/experiments/...
	$(GO) test -race -run 'TestShardDeterminism' ./internal/packetsim/
	$(GO) test -race -run 'TestBalanceDeterminismMatrix|TestScriptedStealMigrates|TestControllerShardingComponents' ./internal/packetsim/
	$(GO) test -race -run 'TestLinkModelShardParity' ./internal/packetsim/
	$(GO) test -race -run 'TestParallelMatchesSerial' ./internal/fairshare/
	$(GO) test -race -run 'TestStreamEquivalence' .

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

# The benchmark declared in BENCHMARK.json: every workload through
# perfbench/run.py (which builds perfbench from source under .bench_build/),
# one JSON result line each. PERFBENCH_SECONDS is each workload's
# host-time budget of repetitions.
PERFBENCH_SECONDS ?= 15
perfbench:
	@for w in ixp-day fabric-dense fattree-packet stream-service; do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds $(PERFBENCH_SECONDS) --trace 0 || exit 1; \
	done

# Regenerate the committed benchmark baseline (do this deliberately, on a
# quiet machine, when a PR intentionally changes event counts or
# performance; the bench-compare CI job gates against this file).
bench-baseline:
	$(GO) run ./cmd/horsebench -quick -parallel 1 -json BENCH_baseline.json

# The CI bench-compare gate, locally: quick suite vs the committed
# baseline at the default ±20% tolerance.
bench-compare:
	$(GO) run ./cmd/horsebench -quick -parallel 1 -json BENCH_new.json -compare BENCH_baseline.json

# The CI scaling-gate, locally: E9 at the quick grid gated against the
# committed baseline's speedup floor (plus its deterministic columns).
scaling-gate:
	$(GO) run ./cmd/horsebench -quick -only E9 -parallel 1 -json BENCH_scaling.json -compare BENCH_baseline.json

# A short native-fuzzing pass over the trace codec, the windowed
# streaming reader, the timing-wheel cascade/overflow paths, the
# steal-schedule determinism property (any legal migration schedule
# yields byte-identical records), and the link-model parity property
# (any model parameters, seed, shard count, backend, and balancing mode
# reproduce the serial heap run). Seed corpora are f.Add'd in the fuzz
# targets plus any checked-in testdata/fuzz entries; the simulation
# fuzzers run fewer iterations because every exec runs full simulations.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTraceRoundTrip -fuzztime=1000x ./internal/traffic/
	$(GO) test -run='^$$' -fuzz=FuzzStreamVsReadCSV -fuzztime=1000x ./internal/traffic/
	$(GO) test -run='^$$' -fuzz=FuzzWheelVsHeap -fuzztime=1000x ./internal/eventq/
	$(GO) test -run='^$$' -fuzz=FuzzStealSchedule -fuzztime=150x ./internal/packetsim/
	$(GO) test -run='^$$' -fuzz=FuzzLinkModelParity -fuzztime=25x ./internal/packetsim/

# End-to-end daemon smoke: horsed on a unix socket, horsectl submit with
# streamed records, a mid-run cancel, and a SIGTERM drain.
service-smoke:
	./scripts/service-smoke.sh

# Regenerate the checked-in public-API surface goldens (api/horse.txt,
# api/wire.txt, api/service.txt). Run after any deliberate change to a
# public surface; TestAPISurfaceGolden (and the lint job's api-check)
# diff the live source against these files.
api:
	$(GO) run ./cmd/horseapi -out api

# Fail if any committed surface golden is stale (the CI lint job's check).
api-check:
	$(GO) run ./cmd/horseapi -check -out api

# golangci-lint (the CI lint job) when installed; vet+gofmt otherwise.
lint: api-check
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; falling back to vet+gofmt"; \
		$(GO) vet ./...; \
		out=$$(gofmt -l .); if [ -n "$$out" ]; then \
			echo "gofmt needed on:"; echo "$$out"; exit 1; \
		fi \
	fi

ci: build lint test race bench fuzz-smoke service-smoke bench-compare

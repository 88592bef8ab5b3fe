GO ?= go

.PHONY: all build vet lint test race check bench trace serve mon

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# tlvet: the project-specific static-analysis suite (cmd/tlvet); fails
# on any finding. Use `go run ./cmd/tlvet -list` to see the analyzers.
lint:
	$(GO) run ./cmd/tlvet .

# Short test run (skips the CLI integration tests).
test:
	$(GO) test -short ./...

# Race-detector run over the concurrent packages: the mapper's worker
# pool, the pipeline scheduler and its workspace pool, the solver
# telemetry hooks, the obs registry itself, cache singleflight, the
# thistled admission path, and the experiments layer fan-out (just
# TestOptimizeLayers: the figure sweeps are too slow under -race).
# Same package list as scripts/check.sh's race leg.
race:
	$(GO) test -race -timeout 30m ./internal/obs/... ./internal/core/... ./internal/pipeline/... ./internal/mapper/... ./internal/solver/... ./internal/cache/... ./internal/serve/...
	$(GO) test -race -timeout 30m -run 'TestOptimizeLayers' ./internal/experiments/

check: build vet lint test race
	@echo "check: ok"

# Capture a Chrome trace of a single-layer optimization and print its
# critical-path / queue-wait report. Load /tmp/thistle.trace.json in
# Perfetto (https://ui.perfetto.dev) or chrome://tracing to inspect it.
trace:
	$(GO) run ./cmd/thistle -layer resnet18_L12 -specs=false \
		-trace-out /tmp/thistle.trace.json >/dev/null
	$(GO) run ./cmd/tlreport trace /tmp/thistle.trace.json

# Run the thistled optimization service locally with the shared solve
# cache on. POST /v1/optimize to it; see docs/API.md for the surface
# and docs/OPERATIONS.md for production sizing.
serve:
	$(GO) run ./cmd/thistled -addr localhost:8080 -cache

# Live terminal dashboard against the `make serve` daemon: QPS,
# latency quantiles, queue depth, cache hit rate, SLO burn state.
mon:
	$(GO) run ./cmd/tlmon -addr localhost:8080

bench:
	$(GO) test -bench . -benchtime 1x -run ^$$ ./...

GO ?= go
STATICCHECK ?= staticcheck

.PHONY: all build test race vet fmt fmt-check staticcheck lint perfbench-check bench bench-json bench-gate coverage examples crash-smoke sim-bench loc ci

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Static analysis beyond vet. Skips with a notice when the binary is not
# installed, UNLESS STATICCHECK_REQUIRED=1 (CI sets it after installing,
# so a PATH problem fails the gate instead of silently passing).
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	elif [ -n "$(STATICCHECK_REQUIRED)" ]; then \
		echo "staticcheck required but not installed"; exit 1; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

# The lint gate CI runs: formatting, vet, staticcheck.
lint: fmt-check vet staticcheck

# Vet and test the benchmark module (perfbench/, its own go.mod that
# imports this one), so an API cut that breaks the benchmark build fails
# here rather than in the benchmark run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Quick smoke of every experiment (same command CI runs).
bench: build
	$(GO) run ./cmd/riobench -exp all -quick

# Regenerate the tracked perf-trajectory snapshot.
bench-json: build
	$(GO) run ./cmd/riobench -exp scale,replication,policy,serve,read,satload,trace -quick -json BENCH_10.json

# Run every example with its built-in tiny config (CI smoke: example
# drift fails the build).
examples: build
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; $(GO) run ./$$d; done

# Power-cut smoke (same command CI runs): riocrash in its four fault
# scopes — full cluster, one target, a replica set, and a relay set
# (the only driver of head-cut re-posting). Each run exits non-zero if
# its invariant audit fails.
crash-smoke: build
	@set -e; for args in "" "-target" "-replicas 3" "-replicas 3 -relay"; do \
		echo "== go run ./cmd/riocrash -seed 1 $$args"; $(GO) run ./cmd/riocrash -seed 1 $$args; done

# Engine micro-benchmarks (sleep round trip, cond hand-off) as a smoke
# that only has to complete: TestSteadyStateAllocFree is the hard gate on
# the engine's allocations.
sim-bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 100000x ./internal/sim

# Non-test Go lines, the benchmark module excluded (the size figure
# CHANGES.md and ROADMAP.md track).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './.bench_build/*' | xargs cat | wc -l

# The CI perf gate: run the gated experiments fresh and fail on >10%
# regression in the gated metrics vs the committed baseline.
bench-gate: build
	$(GO) run ./cmd/riobench -exp scale,replication,policy,serve,read,satload,trace -quick -json /tmp/bench-gate.json
	$(GO) run ./cmd/benchdiff -new /tmp/bench-gate.json

# Coverage profile over the ordering engine and the stack that drives it
# (CI uploads the profile as an artifact).
coverage: build
	$(GO) test -coverprofile=coverage.out -coverpkg=./internal/order/...,./internal/stack/... ./internal/order/... ./internal/stack/...
	$(GO) tool cover -func=coverage.out | tail -1

ci: lint build race perfbench-check sim-bench bench bench-gate examples crash-smoke

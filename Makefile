GO ?= go

# COVERAGE_FLOOR is the committed minimum total statement coverage over
# ./internal/... (the tree sat at ~90.2% when the floor was last raised,
# after the gateway/registry cluster suites landed); `make cover` and the
# CI coverage job fail below it.
COVERAGE_FLOOR ?= 89.5

.PHONY: build test verify race bench cover clean artifact

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the serving-layer gate: static checks plus the fault-injection,
# protocol, and telemetry suites under the race detector. Run it before
# touching internal/mlaas, internal/faultnet, internal/telemetry, or the
# wire format. bench/ is its own module (it implements hecnn.Backend), so
# it is vetted and smoke-tested explicitly.
verify:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	$(GO) test -C bench .
	$(GO) test -race ./internal/mlaas/... ./internal/gateway/... ./internal/registry/... ./internal/faultnet/... ./internal/telemetry/... ./internal/hecnn/... ./internal/parallel/... ./internal/ckks/... ./internal/cache/...

# race runs the whole tree under the race detector (slower than verify).
race:
	$(GO) test -race ./...

# bench writes BENCH_inference.json: the per-network encrypted-inference
# benchmarks plus the per-op Kernel_ microbenchmarks the CI kernel gate
# compares. Two passes: the heavyweight MNIST rows run one iteration
# each, while the rows ci.yml actually gates (Inference_Tiny*, Kernel_*)
# run in their own fresh process at -benchtime=5x — the exact conditions
# the gate re-measures them under, isolated from the gigabytes of
# garbage the MNIST rows leave behind (observed inflating the kernel
# rows up to 3.5× when they shared the process). Both passes use
# -count=3 and benchjson collapses the samples per row to their median:
# multi-second host contention windows were observed inflating a single
# seconds-long sample up to 4×, and a median-of-3 baseline can't be
# skewed by one of them. Each run is also appended to the rolling
# BENCH_history.jsonl, so before/after pairs of an optimization are
# preserved locally. The intermediate file keeps go test's exit code
# visible through the pipe.
bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -bench='Inference_MNIST|Train' -benchtime=1x -count=3 -run=^$$ . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	$(GO) test -bench='Inference_Tiny|Kernel_' -benchtime=5x -count=3 -run=^$$ . >> bench.out || (cat bench.out; rm -f bench.out; exit 1)
	./bin/benchjson -out BENCH_inference.json -history BENCH_history.jsonl -regress-pct 10000 < bench.out
	rm -f bench.out

# artifact is the one-command paper reproduction (ARTIFACT.md): verify
# the committed EXPERIMENTS.md table bodies are current, then emit the
# full bundle — every paper table as CSV/markdown/LaTeX under artifact/
# plus the measured open-loop serving curves and their
# artifact/BENCH_loadgen.json rows. ARTIFACT_MODE=full enlarges the
# measured grids (quick runs in seconds, full in minutes).
ARTIFACT_MODE ?= quick
artifact:
	$(GO) run ./cmd/artifact -check
	$(GO) run ./cmd/artifact -mode $(ARTIFACT_MODE)

# cover writes coverage.out over the internal packages and enforces the
# committed floor. CI uploads the profile as an artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	awk -v t="$$total" -v floor="$(COVERAGE_FLOOR)" 'BEGIN { \
		if (t+0 < floor+0) { printf "coverage %.1f%% below floor %.1f%%\n", t, floor; exit 1 } \
		printf "coverage %.1f%% meets floor %.1f%%\n", t, floor }'

clean:
	$(GO) clean ./...

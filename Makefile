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
	$(GO) test -race ./internal/mlaas/... ./internal/gateway/... ./internal/registry/... ./internal/faultnet/... ./internal/telemetry/... ./internal/hecnn/... ./internal/parallel/... ./internal/ckks/... ./internal/ring/...

# race runs the whole tree under the race detector (slower than verify).
race:
	$(GO) test -race ./...

# bench refreshes BENCH_kernels.json, the committed baseline of the CI
# kernel gate: the six Kernel_ rows at the exact settings ci.yml
# re-measures them under, each run three times and collapsed to its
# median by benchjson. The intermediate file keeps go test's exit code
# visible. End-to-end timing is bench/'s job (bash bench/run.sh).
bench:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -bench=Kernel_ -benchtime=5x -count=3 -run=^$$ . > bench.out || (cat bench.out; rm -f bench.out; exit 1)
	./bin/benchjson -out BENCH_kernels.json < bench.out
	rm -f bench.out

# artifact is the one-command paper reproduction (ARTIFACT.md): verify
# the committed EXPERIMENTS.md table bodies are current, then emit every
# paper table as CSV/markdown/LaTeX under artifact/.
artifact:
	$(GO) run ./cmd/artifact -check
	$(GO) run ./cmd/artifact

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

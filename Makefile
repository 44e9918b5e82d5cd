GO ?= go

.PHONY: build test test-seq test-xfer-race test-fleet test-trace test-kernels test-purego build-arm64 fuzz-kernels test-batch test-pool benchmark-check vet race bench bench-smoke bench-json bench-compare serve clean

# Experiments with committed BENCH_<exp>.json baselines at the repo root —
# the perf trajectory the compare gate tracks (DESIGN.md §14).
BENCH_TRACKED = fleet,pagedkv,overlap,radix,kernels,decodebatch

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Tier-1 verification: everything builds, vet is clean, tests pass with the
# race detector.
test: vet
	$(GO) test -race ./...

# Serial-schedule lane: the whole suite at GOMAXPROCS=1, locking the
# determinism contract's width-independent outputs (DESIGN.md §6) — the
# transfer telemetry's among them (serve.TestTransferTelemetryDeterministic).
test-seq:
	GOMAXPROCS=1 $(GO) test ./...

# Transfer-runtime race lane: the serve engine and the kvcache/core
# transfer-path packages under the race detector at GOMAXPROCS=2, the
# narrowest schedule that still interleaves the streams of a round on the
# engine's one runtime (DESIGN.md §8); then the telemetry determinism test
# four more times, since a schedule-dependent total shows up only sometimes.
test-xfer-race:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/serve/ ./internal/kvcache/ ./internal/core/
	GOMAXPROCS=2 $(GO) test -race -count=4 -run 'TestTransferTelemetryDeterministic' ./internal/serve/

# Fleet determinism lane: the multi-replica router suite at the serial
# schedule and at GOMAXPROCS=2 (race-enabled), locking identical placements,
# tokens and metrics across replica counts {1,2,4} (DESIGN.md §9).
test-fleet:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/fleet/
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/fleet/

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Tracing determinism lane: re-run the serve and fleet determinism suites
# with the event tracer attached, locking the observability contract — a
# traced run is token- and round-identical to an untraced run at the serial
# schedule and under the race detector at GOMAXPROCS=2 (DESIGN.md §10).
test-trace:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Trace' ./internal/serve/ ./internal/fleet/ ./internal/obs/
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'Trace' ./internal/serve/ ./internal/fleet/ ./internal/obs/

# Machine-readable bench trajectory: refresh the committed BENCH_<exp>.json
# baselines at the repo root (typed metrics + options + seed + commit) for the
# experiments with headline numbers worth diffing across commits. Quick scale
# — not a measurement run. Run this (and commit the diff) whenever a change
# intentionally moves a gated metric.
bench-json:
	$(GO) run ./cmd/clusterkv-bench -exp $(BENCH_TRACKED) -json .

# Perf-regression trajectory gate: re-run the tracked experiments, diff every
# deterministic metric against the committed repo-root baselines, and fail on
# an adverse change beyond the threshold (wall-clock metrics only warn —
# DESIGN.md §14). Fresh snapshots land in bench-out/ as a CI artifact.
bench-compare:
	$(GO) run ./cmd/clusterkv-bench -exp $(BENCH_TRACKED) -json bench-out -compare .

# Kernel conformance lane: the blocked/packed/fused/quantized decode kernel
# suites, the prefill query block against per-query attention (FullBlock) and
# the vector ≡ scalar suite (Vec: AVX2 kernels against the Go
# loops, the exp pin, the fuzz seed corpus) at GOMAXPROCS=1 and at
# GOMAXPROCS=2 with the race detector, locking the bit-identity and
# bounded-ULP contracts of DESIGN.md §12 independently of the scheduler.
test-kernels:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'Blocked|DotRows|AddScaledRows|PackedMat|Fused|Quant|ComputeQuant|DecodeSteady|Vec|FullBlock' ./internal/tensor/ ./internal/attention/ ./internal/kvcache/ ./internal/model/
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'Blocked|DotRows|AddScaledRows|PackedMat|Fused|Quant|ComputeQuant|DecodeSteady|Vec|FullBlock' ./internal/tensor/ ./internal/attention/ ./internal/kvcache/ ./internal/model/

# Generic-path lanes: the scalar Go kernels are what every target but amd64
# runs, so the packages that sit on them are tested with the vector path
# compiled out (purego) and the whole module is cross-built for arm64.
test-purego:
	$(GO) test -count=1 -tags purego ./internal/tensor ./internal/attention ./internal/model ./internal/cluster

build-arm64:
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/tensor

# Ten seconds of native fuzzing of the vector kernels against the scalar
# loops, starting from the seed corpus in the test.
fuzz-kernels:
	$(GO) test -run=NONE -fuzz=FuzzVecKernels -fuzztime=10s ./internal/tensor

# Decode-cohort conformance lane: the cross-stream batched GEMM kernels, the
# BatchDecoder suites (the one executor at cohort size 1 against sizes 2..8;
# its comparison with the tests' per-stream serial oracle is in test-pool) and
# the engine's cohort-of-8 ≡ cohort-of-1 ≡ serial-decode suites at
# GOMAXPROCS=1 and at GOMAXPROCS=2 with the race detector, locking that a
# stream's tokens do not depend on who shares its cohort (DESIGN.md §13).
test-batch:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'MatTMat|MatMulRows|BatchDecode' ./internal/tensor/ ./internal/model/ ./internal/serve/
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'MatTMat|MatMulRows|BatchDecode' ./internal/tensor/ ./internal/model/ ./internal/serve/

# Pool lane: the spin paths of internal/parallel (hot helper, caller's wait,
# park after the window) are schedule-sensitive, so the pool suite and the
# model suites that sit on it — the decode step ≡ the per-stream serial
# oracle, prefill conformance (cold ≡ prefix hit ≡ that oracle), cohort of one
# ≡ cohort of eight — run under
# the race detector at GOMAXPROCS 1 (every spin must yield), 2 and 4, three
# times each (DESIGN.md §6, §13).
test-pool:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -race -count=3 ./internal/parallel/ || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race -count=3 -run 'TwoPhase|Conformance|BatchDecode|PrefillHit' ./internal/model/ || exit 1; \
	done

# Nested benchmark module (benchmark/, driven by BENCHMARK.json): it compiles
# against this module's API but sits outside `go test ./...`, so vet and test
# it explicitly (~5 s) whenever that API moves.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Benchmark smoke lane: compile and run every benchmark in the module once,
# so perf-critical paths (serve engine, paged arena, parallel kernels) cannot
# silently rot into compile errors or panics. The `-exp fleet` experiment
# runs here via BenchmarkFleetRouting. Not a measurement run.
bench-smoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

serve:
	$(GO) run ./cmd/clusterkv-serve

clean:
	$(GO) clean ./...

GO ?= go

.PHONY: build test test-seq test-xfer-race test-fleet test-trace test-kernels test-purego build-arm64 fuzz-kernels test-batch test-pool benchmark-check vet bench bench-smoke bench-json bench-compare serve clean

# Experiments with committed BENCH_<exp>.json baselines at the repo root —
# the perf trajectory the compare gate tracks (DESIGN.md §14): the serving
# experiments and the paper artifacts Table I, Fig. 12 and the §V-C cache
# study.
BENCH_TRACKED = fleet,pagedkv,overlap,prefixcache,tab1,fig12,cache

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
# engine's one runtime (DESIGN.md §8); then the telemetry determinism test,
# the intake stress test, the three host-tier tests and the cached-prefix
# accessor test four more times, since a schedule-dependent total, a lost or
# doubled request id, or a Metrics or CachedPrefixes read racing the
# scheduler shows up only sometimes.
test-xfer-race:
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/serve/ ./internal/kvcache/ ./internal/core/
	GOMAXPROCS=2 $(GO) test -race -count=4 -run 'TestTransferTelemetryDeterministic|TestEngineStressRandomizedLifecycles|TestShutdownMidSpillDrainsCleanly|TestTwoTierHostCountFollowsFootprint|TestEvictedSpilledPrefixTakesItsHostSlots|TestCachedPrefixesFollowsEviction' ./internal/serve/

# Fleet determinism lane: the multi-replica router suite and its front door,
# the clusterkv-serve CLI, at the serial schedule and at GOMAXPROCS=2
# (race-enabled), locking identical placements, tokens and metrics across
# replica counts {1,2,4} (DESIGN.md §9); then the streaming Submit/Wait tests,
# the 2000-Submit residency soak and the malformed-shared-prefix test (Run and
# Submit on one router) four more times, since a booking settled twice or
# never, a ticket lost in failover, a residency refresh racing the engines, or
# a router left locked shows up only under some interleavings.
test-fleet:
	GOMAXPROCS=1 $(GO) test -count=1 ./internal/fleet/ ./cmd/clusterkv-serve/
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/fleet/ ./cmd/clusterkv-serve/
	GOMAXPROCS=2 $(GO) test -race -count=4 -run 'Submit|Streaming|Soak|MalformedSharedPrefix' ./internal/fleet/

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
# seven tracked experiments, whose every metric is a pure function of
# (options, seed). Every number a report prints is one named cell, and the
# snapshot lists them all: <report id>.<row>.<col> in a paper table
# (tab1.clusterkv.b256), explicit names in the serving experiments
# (affinity.prefix_hit_rate). Quick scale — not a measurement run. Run this
# (and commit the diff) whenever a change intentionally moves a tracked metric.
bench-json:
	$(GO) run ./cmd/clusterkv-bench -exp $(BENCH_TRACKED) -json .

# Trajectory gate: re-run the tracked experiments (fleet, pagedkv, overlap,
# prefixcache, tab1, fig12, cache) and diff every named cell against the
# committed repo-root baselines; any change to a tracked metric, or a missing
# one, fails (DESIGN.md §14). Fresh snapshots land in bench-out/ as a CI
# artifact.
bench-compare:
	$(GO) run ./cmd/clusterkv-bench -exp $(BENCH_TRACKED) -json bench-out -compare .

# Kernel conformance lane: the blocked row kernels, the LM head's transposed
# layout (PackedMat) and the fused decode kernel suites, the prefill query
# block against per-query attention (FullBlock, on the score tile's AVX-512
# and AVX2 kernels), the shared-page group attention against per-member Full
# and its kernels against per-member ones (FullShared, GroupKernels,
# SharedPages), the GEMM bands against the naive GEMM at pool widths
# {1, 2, 3, 8} (MatKernel), the score tile's dot as K-means' entry against
# Dot (TileDot), the vector ≡ scalar suite (Vec: AVX2 kernels against the Go
# loops, both forms of the score tile's kernels and the register tile's, the
# exp pin on every exp kernel and the table exps' fallback (SoftmaxRows'
# two-row one among them), softmax, SoftmaxRows and SiluMul on the AVX2 and
# the AVX-512 exp, the arg-best, the fuzz seed corpus), the pair unit of
# decode attention against a Full or Sparse call per head and its kernels
# against their scalar loops (Pair), K-means against its
# key-major oracle and the model suites that run those kernels end to end
# (prefill conformance, the two-phase decode step and the batch decoder
# against their serial oracles) at GOMAXPROCS=1 and at GOMAXPROCS=2 with the
# race detector, locking the bit-identity contract of DESIGN.md §12
# independently of the scheduler. Each runs twice: as the CPU dispatches,
# and under the noavx512 tag, which keeps the AVX-512 kernels off for the
# whole binary, so the AVX2 ones stay tested on AVX-512 hosts.
KERNEL_TESTS = 'Block|DotRows|AddScaledRows|TileDot|PackedMat|MatKernel|Fused|DecodeSteady|Vec|KMeans|ArgBest|Silu|Prefill|TwoPhase|BatchDecode|GroupKernels|FullShared|SharedPages|Pair'
KERNEL_PKGS = ./internal/tensor/ ./internal/attention/ ./internal/model/ ./internal/cluster/

test-kernels:
	for tags in '' noavx512; do \
		GOMAXPROCS=1 $(GO) test -count=1 -tags "$$tags" -run $(KERNEL_TESTS) $(KERNEL_PKGS) || exit 1; \
		GOMAXPROCS=2 $(GO) test -race -count=1 -tags "$$tags" -run $(KERNEL_TESTS) $(KERNEL_PKGS) || exit 1; \
	done

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

# Decode-cohort conformance lane: the batched GEMM kernels (MatTMat, which
# prefill's row blocks run as well as decode cohorts, and the LM head's block
# product PackedMat.MatMulOn, against per-row GEMVs
# and, through TestMatKernelConformance, the naive GEMM at pool widths
# {1, 2, 3, 8}), the BatchDecoder suites (the one executor at cohort size 1 against sizes 2..8;
# its comparison with the tests' per-stream serial oracle is in test-pool) and
# the engine's cohort-of-8 ≡ cohort-of-1 ≡ serial-decode suites, and the
# grouped attention of full picks over shared pages (FullShared and its
# kernels, a cohort forked from two snapshots against the serial oracle) and
# the pair unit every other pick takes (Pair) at GOMAXPROCS=1 and at
# GOMAXPROCS=2 with the race detector, locking that a
# stream's tokens do not depend on who shares its cohort (DESIGN.md §13).
test-batch:
	GOMAXPROCS=1 $(GO) test -count=1 -run 'MatTMat|PackedMatMul|MatKernel|BatchDecode|FullShared|GroupKernels|SharedPages|Pair' ./internal/tensor/ ./internal/attention/ ./internal/model/ ./internal/serve/
	GOMAXPROCS=2 $(GO) test -race -count=1 -run 'MatTMat|PackedMatMul|MatKernel|BatchDecode|FullShared|GroupKernels|SharedPages|Pair' ./internal/tensor/ ./internal/attention/ ./internal/model/ ./internal/serve/

# Pool lane: the spin paths of internal/parallel (hot helper, caller's wait,
# park after the window) are schedule-sensitive, so the pool suite and the
# model suites that sit on it — the decode step ≡ the per-stream serial
# oracle, prefill conformance (cold ≡ prefix hit ≡ that oracle, with and
# without per-position logits), cohort of one ≡ cohort of eight — run under
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

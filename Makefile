# Shared entry points for CI (.github/workflows/ci.yml) and local
# development — keep the two in sync by only ever invoking make from CI.

# The bench targets pipe `go test` through tee; without pipefail a failed
# benchmark run would leave the pipeline (and CI) green.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

GO ?= go
BENCH_OUT ?= bench.txt
BENCH_BASE ?= benchbase.txt
BENCH_NEW ?= bench.new.txt
BENCH_DIFF ?= benchdiff.txt

# Micro-benchmarks of the hot kernels (excludes the full experiment
# regenerations): the set benchdiff tracks against the committed baseline.
# Query side: SimDBLookup/RMASimRun/... Build side: StackDistances,
# LeadingMissSurface (fused all-(c,w) profile), SimulatePhase (per-phase
# kernel) and EnvBuild (cold full environment — the headline build-side
# wall time, also recorded in the CI bench artifact). Serving side:
# ServeWireHit/ServeWireMissRM2/ServeWireMissRM3 (in-process binary
# round trips of 256 queries: all cache hits, and cache-off misses served
# from warm shard curve tables).
MICRO_BENCH ?= ATDAccess|StackDistances|MLPAnalysis|LeadingMissSurface|SimulatePhase|CurveReduction|TreeReduction16Core|SimDBLookup|SimDBReferenceEval|RMASimRun|RMASimStep|ClusterRun|RMAOverhead|RM3Overhead|EnvBuild|WireEncode|WireDecode|Equilibrium|ScorerCold|ServeWire
# benchbase and benchdiff must measure under identical flags, or the
# benchstat comparison is noise.
MICRO_FLAGS ?= -benchtime=0.2s -count=5

.PHONY: all build test test-short lint shlint vet-suite escape-check escape-baseline \
	bench benchbase benchdiff pprof example-cluster \
	loadtest loadtest-wire chaos determinism golden cover cover-check fuzz-smoke docs-check loc clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Fast verification: multi-second environment builds are skipped via
# testing.Short; CI uses this for the per-push test step.
test-short:
	$(GO) test -short -race ./...

# perfbench/ is its own module (replace qosrma => ../), so the root
# module's vet and qosrmavet never see it: check it from inside too.
lint: shlint vet-suite
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	@unformatted=$$(cd perfbench && gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed in perfbench/ on:"; echo "$$unformatted"; exit 1; \
	fi
	cd perfbench && $(GO) vet ./...
	cd perfbench && $(GO) run qosrma/cmd/qosrmavet ./...

# The repo-specific analyzer suite (cmd/qosrmavet, docs/analysis.md):
# determinism, noalloc, shardowned, ctxdeadline and exhaustive over the
# whole module, at a zero-finding baseline. Findings land in
# qosrmavet.txt (uploaded as a CI artifact on failure).
vet-suite:
	$(GO) run ./cmd/qosrmavet ./... 2>&1 | tee qosrmavet.txt

# Shell hygiene for scripts/*.sh: bash shebang, set -euo pipefail, bash -n.
shlint:
	./scripts/shlint.sh

# Compiler escape analysis over every //qosrma:noalloc function, diffed
# against the committed baseline (internal/analysis/escape.baseline). A
# new escape in a hot function fails here even when no AllocsPerRun pin
# happens to cross it. Diff lands in escape.diff.txt for CI artifacts.
escape-check:
	$(GO) run ./cmd/qosrmavet -escape 2>&1 | tee escape.diff.txt

# Rewrite the escape baseline from the current tree (review the diff
# before committing: every new line is a new hot-path heap escape).
escape-baseline:
	$(GO) run ./cmd/qosrmavet -escape -update

# One iteration per benchmark: a smoke run that still reports the paper
# metrics (avgSavings% etc.), captured for the perf trajectory artifact.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./... | tee $(BENCH_OUT)

# Regenerate the committed micro-benchmark baseline (same flags as
# benchdiff, so benchstat compares like with like).
benchbase:
	$(GO) test -bench='$(MICRO_BENCH)' $(MICRO_FLAGS) -run '^$$' . | tee $(BENCH_BASE)

# Run the micro-benchmarks and compare against the committed baseline with
# benchstat; the diff lands in $(BENCH_DIFF) (uploaded as a CI artifact).
benchdiff:
	$(GO) test -bench='$(MICRO_BENCH)' $(MICRO_FLAGS) -run '^$$' . | tee $(BENCH_NEW)
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_BASE) $(BENCH_NEW) | tee $(BENCH_DIFF); \
	else \
		$(GO) run golang.org/x/perf/cmd/benchstat@latest $(BENCH_BASE) $(BENCH_NEW) | tee $(BENCH_DIFF); \
	fi

# Smoke-run the open-system cluster walkthrough in its short shape (the
# CI build job runs this so the fleet engine stays demonstrably working).
example-cluster:
	$(GO) run ./examples/cluster -short

# Serving-layer smoke: start qosrmad, drive it with the deterministic
# loadgen trace, enforce the 100k decide-requests/sec floor and leave the
# report in loadgen.txt (uploaded with the CI bench artifacts).
loadtest:
	./scripts/loadtest.sh

# Same smoke over the binary decide protocol (qosrmad -wire-addr +
# loadgen -wire): the zero-copy path must clear a floor well above the
# JSON one. Report lands in loadgen.wire.txt.
loadtest-wire:
	WIRE=1 MIN_QPS=250000 OUT=loadgen.wire.txt ./scripts/loadtest.sh

# The chaos wall: the seeded in-process fault-injection suite (real
# servers behind deterministic fault proxies, routed on both codecs —
# bit-identical answers under faults, bounded errors, eject/readmit on
# kill/heal) plus a multi-process drill on this runner: four qosrmad
# replicas behind a qosrmad -route tier, loadgen driving JSON and wire
# through it while a backend is kill -9'd and restarted. Also the
# ROADMAP's multi-process distributed loadtest target. Report: chaos.txt.
chaos:
	./scripts/chaos.sh

# The byte-determinism wall, promoted to the per-push CI lane: the cluster
# engine's emitter output across worker counts {1,4,GOMAXPROCS} (scored
# and equilibrium placement), database builds across worker counts,
# concurrent service batches vs sequential library calls, the binary
# decide path vs the JSON one on the same seeded trace, the binary
# response stream hash across shard/cache layouts, the shard curve
# tables (cold and warm, cache off) vs the fresh-manager and library
# paths, and the Nash solver's equilibrium across solver worker counts
# and repeated runs.
# Run without -short (these need real database builds) and without caching.
determinism:
	$(GO) test -count=1 -run \
		'TestClusterDeterministic|TestEquilibriumPlacementDeterministic|TestSolveDeterministic|TestBuildDeterministicAcrossWorkerCounts|TestConcurrentDecideDeterministic|TestDecideMatchesLibrary|TestCurveTableMatchesLibrary|TestWireMatchesJSON|TestWireStreamDeterministic' \
		./internal/cluster ./internal/equilibrium ./internal/simdb ./internal/service

# Golden-table regression: regenerate the committed paper tables (via
# System.Sweep) and the small-fleet placement comparison, and fail on any
# byte drift (refresh intentionally with `go test -run TestGolden -update .`).
golden:
	$(GO) test -count=1 -run 'TestGolden' .

# Fuzz regression: run every fuzz target over its seed corpus only (no
# fuzzing time), so corpus regressions fail fast in CI; `go test -fuzz`
# explores further locally.
fuzz-smoke:
	$(GO) test -count=1 -run 'Fuzz' ./internal/simdb ./internal/service ./internal/cache ./internal/core ./internal/wire

# Docs consistency wall: every relative link in README.md and docs/
# resolves, and the server's registered route table matches docs/api.md
# in both directions (no undocumented routes, no phantom docs).
docs-check:
	./scripts/docscheck.sh

# Non-test Go line count per internal/ package, the internal/ subtotal
# and the module total (perfbench/ and .bench_build/ excluded): the size
# figure the ROADMAP tracks beside the perf numbers.
loc:
	./scripts/loc.sh

# Coverage report: cover/cover.out + per-package HTML + cover/func.txt.
cover:
	./scripts/cover.sh

# Ratcheting CI floor: fail when total coverage drops below
# .coverage-floor (kept at measured% - 1; raise it as coverage grows).
cover-check:
	./scripts/cover.sh check

# CPU-profile the build side: one cold SharedEnv construction plus the hot
# profiling kernels, then print the top consumers. cpu.prof stays on disk
# for `go tool pprof` drill-down (web/peek/list).
pprof:
	$(GO) test -run '^$$' -bench 'EnvBuild|SimulatePhase|LeadingMissSurface|StackDistances' \
		-benchtime=0.5s -count=1 -cpuprofile cpu.prof -o qosrma.test .
	$(GO) tool pprof -top -nodecount=25 qosrma.test cpu.prof | tee pprof.txt

clean:
	rm -f $(BENCH_OUT) $(BENCH_NEW) $(BENCH_DIFF) cpu.prof pprof.txt qosrma.test loadgen.txt loadgen.wire.txt chaos.txt qosrmavet.txt escape.diff.txt loc.txt
	rm -rf cover bin
	$(GO) clean ./...

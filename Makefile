# Build/test entry points. `make ci` is the gate PRs must keep green:
# vet plus the full test suite under the race detector (the experiment
# fan-outs all run through internal/runner's worker pool, so -race
# exercises real parallelism even on CI runners with few cores).

GO ?= go

.PHONY: build vet test race ci bench-smoke bench-diff batch-smoke chaos-smoke serve-smoke obs-smoke geom-smoke crash-smoke chaosnet-smoke cluster-smoke mrc-smoke vulncheck fuzz clean-cache

build:
	$(GO) build ./...

# gofmt drift fails vet: any file gofmt would rewrite is listed and the
# target exits non-zero. The roots are named explicitly so build output
# under the repo root (perfbench's .bench_build module cache) is skipped.
# perfbench/ is a nested module that `./...` at the root does not reach;
# vetting it there compiles the benchmark against the internal packages
# it imports.
vet:
	@out=$$(gofmt -l cmd internal examples perfbench *.go) && \
	if [ -n "$$out" ]; then echo "gofmt -l lists files that need formatting:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

ci: vet race bench-smoke batch-smoke chaos-smoke serve-smoke obs-smoke geom-smoke crash-smoke chaosnet-smoke cluster-smoke mrc-smoke vulncheck

# CI smoke: compile and execute every benchmark for one iteration so a
# benchmark that panics or allocates unboundedly fails the gate without
# paying full measurement time (the allocation *numbers* are pinned by
# the AllocsPerRun regression tests under `make race`). This also runs
# BenchmarkFleetSweep, which fails unless a 3-node fleet's sweep output
# is byte-identical to a single node's and at least 2.2x faster, and
# BenchmarkObserveBatch, the MRC profiler's sampled and exact observe
# paths over 1M swim references.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Parent-vs-change benchmark protocol: check out BASE and HEAD as git
# worktrees under .bench_build/diff/, run every BENCHMARK.json workload
# in 10 alternating pairs (perfbench/run.sh --trace 0, one build dir per
# side) and print per-metric medians, wins, the parent's quartiles and a
# verdict. Exits non-zero on a regression beyond a metric's bound or a
# larger share of failed operations. Not part of ci: it measures, it
# does not gate. Usage: make bench-diff BASE=<rev> SEED=<n>
BASE ?= HEAD~1
SEED ?= 1
bench-diff:
	$(GO) run ./cmd/benchdiff -base $(BASE) -seed $(SEED)

# Batch-kernel smoke: the scalar-vs-batch differential property tests
# under the race detector, then the tool pipeline end to end — generate a
# legacy (v1) trace, convert it to the fixed-stride v2 format, check the
# conversion is byte-identical to generating v2 directly, classify both
# wire versions through the mmap-backed batch kernel, and require the two
# classifications to agree line for line (the leading line names the input
# file and is stripped before diffing). The stream golden corpus (every
# suite benchmark's full and memory-only streams, hashed at three seeds),
# the MemStream-vs-filter differentials (records and access columns) and
# the single-scan cache probe differential run first, also under -race.
batch-smoke:
	$(GO) test -race -count=1 -run 'TestStreamFingerprintsMatchGolden|TestMemStreamMatchesMemOnlyFilter|TestMemStreamColumnsMatchMemOnlyFilter|TestFillerSkipMatchesLoop|TestProbeFillSlotMatchesAccessFill' ./internal/sim ./internal/workload ./internal/cache
	$(GO) test -race -count=1 -run 'TestClassifyBatchMatchesScalar|TestClassifyBatchAcrossWireFormats|TestClassifyUploadStreamsBeforeBodyComplete' ./internal/sim ./internal/service
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run -race ./cmd/tracegen -bench swim -n 20000 -seed 7 -format v1 -o $$tmp/swim.v1.mctr && \
	$(GO) run -race ./cmd/tracegen -convert $$tmp/swim.v1.mctr -o $$tmp/swim.v2.mctr && \
	$(GO) run -race ./cmd/tracegen -bench swim -n 20000 -seed 7 -format v2 -o $$tmp/swim.direct.mctr && \
	cmp $$tmp/swim.v2.mctr $$tmp/swim.direct.mctr && \
	$(GO) run -race ./cmd/mctsim -trace $$tmp/swim.v1.mctr | tail -n +2 > $$tmp/v1.out && \
	$(GO) run -race ./cmd/mctsim -trace $$tmp/swim.v2.mctr | tail -n +2 > $$tmp/v2.out && \
	diff $$tmp/v1.out $$tmp/v2.out && \
	echo "batch-smoke: v1/v2 classifications identical"

# Chaos smoke: the fault-tolerance acceptance tests (injected transient
# faults converge to byte-identical output; hangs are cut by -task-timeout;
# kill + rerun recomputes only unfinished cells) under the race detector.
# `make race` already runs these once; this target re-runs them -count=1
# as a focused gate so a cached pass never masks a supervision regression.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos|TestKillAndResume|TestPartialFailureExitPolicy' ./cmd/paperbench ./internal/faultinject

# Service smoke: boot mctd on an ephemeral port, hold 500 classify
# requests in flight against a 512-slot admission gate, verify the
# overflow bounces with 429 while memory stays bounded, run mctload
# against the live daemon, then SIGTERM and assert a clean drain with
# zero leaked goroutines, and replay the endpoint golden corpus
# (internal/service/testdata/golden: status, Content-Type and body bytes
# of every endpoint's spec and upload paths and main rejections, each
# spec sent cold, disk-warm and memory-warm), plus the memory memo tier's
# tests (admission on hit only, budget, NoCache, hit accounting, fault
# injection on a memory hit) — all under the race detector. `make race`
# already runs this once; the focused -count=1 re-run keeps a cached
# pass from masking a regression.
serve-smoke:
	$(GO) test -race -count=1 -run 'TestServeSmoke|TestMctloadEndToEnd|TestEndpointGolden|TestMemoTier' -timeout 300s ./cmd/mctd ./cmd/mctload ./internal/service

# Observability smoke: boot mctd, drive exactly 200 classify requests
# through the load generator, scrape /metrics?format=prometheus, and
# require (a) zero unparseable exposition lines under the strict parser,
# (b) the server-side classify-latency histogram _count to equal the
# client-side request count, (c) every metric name to pass the naming
# convention (the vet-style gate lives in TestMetricNamingConvention).
# The drain tests pin that /metrics never goes dark while draining; the
# brownout-signal and histogram-quantile tests pin the one bucket
# interpolation rule (obs.Histogram.QuantileOf) the controller reads.
obs-smoke:
	$(GO) test -race -count=1 -run 'TestObsSmoke|TestMetricNamingConvention|TestPrometheusExposition|TestHealthzAndDrain|TestMetricsServedWhileDraining|TestBrownoutOverloadSignal|TestHistogramQuantile' -timeout 300s ./cmd/mctd ./internal/service ./internal/obs

# Geometry smoke: the index-scheme gate under the race detector. The
# modulo fingerprint test pins the pluggable-geometry refactor to the
# pre-refactor goldens (classification verdicts and end-to-end timing,
# byte for byte); the cache geometry tests pin the skewed/random row
# hashes (dispersion, seed determinism, exact eviction addresses); the
# scalar-vs-batch differential covers all three schemes via
# diffGeometries. The scheduler fingerprint test pins the one OoO core's
# wakeup/select scheduler, at one thread and as SMT, to the timing of the
# scan-based and polling cores it replaced (paper-sim cells, odd CPU
# shapes, I-cache, MaxCycles, and two- and four-thread co-runs). The
# assist outcome corpus pins every assist policy's functional outcomes
# (baseline, victim, next-line and RPT prefetch, exclusion, AMB), access
# by access, across the refactor that made them policies of the one
# assist.Engine. The allocation guards pin its run loop as
# allocation-free per instruction at one and two threads, and the SMT tests pin each thread's FP-queue
# share and its fetch through the instruction cache. `make race` runs
# these once; the focused -count=1 re-run keeps a cached pass from masking
# a regression.
geom-smoke:
	$(GO) test -race -count=1 -run 'TestModuloGeometryFingerprintsMatchSeed|TestSchedulerFingerprintsMatchScan|TestAssistOutcomesMatchGolden|TestClassifyBatchMatchesScalar' ./internal/sim
	$(GO) test -race -count=1 -run 'TestRunAllocationsIndependentOfLength|TestSMTRunAllocationsIndependentOfLength|TestSMTFPQueueShareBinds|TestSMTFetchesThroughICache' ./internal/cpu
	$(GO) test -race -count=1 -run 'TestIndexScheme|TestConfigValidateRejectsUnknownScheme|TestModuloRowsMatchGeometry|TestSkewed|TestRandom|TestEvictionAddressExactUnderSkew|TestFillMakesHitAllSchemes|TestLoadMissAccounting|TestCacheAccessSteadyStateAllocs' ./internal/cache

# Crash smoke: the kill -9 durability gate. Boots mctd as a real
# subprocess, SIGKILLs it mid-sweep (a hang injected at one cell makes
# the kill point deterministic), reboots on the same data dirs, and
# requires the journaled job to finish with exactly one recomputed cell
# — then proves the recovered sweep output is byte-identical to a
# clean-room run. Runs under -race because recovery replays the journal
# concurrently with new admissions.
crash-smoke:
	$(GO) test -race -count=1 -run 'TestCrashRecoverySIGKILL' -timeout 300s ./cmd/mctd

# Chaos-network smoke: the end-to-end resilience gate. Boots mctd behind
# the chaos listener (5% connection resets, injected latency), drives
# 200 requests through the resilient client with retries enabled, and
# requires 100% goodput with zero duplicate server-side computation
# (cache_misses unchanged after a serial warmup — idempotency keys and
# the memo cache absorb every retry). Distinct from chaos-smoke, which
# covers task-level fault injection inside one process; this one covers
# faults on the wire.
chaosnet-smoke:
	$(GO) test -race -count=1 -run 'TestChaosnetConvergence' -timeout 300s ./cmd/mctd

# Cluster smoke: the distributed-execution gate. Boots a 3-node
# in-process fleet (real TCP listeners, per-node caches, static peer
# list) with one peer's listener injecting deterministic connection
# resets, runs a 200-cell seeded sweep through the coordinator, and
# requires: the job completes, the fleet computed every cell exactly
# once (cache-miss accounting sums to the cell count — the resilient
# peer client plus per-node cell singleflight absorb the resets without
# recomputation), and the NDJSON is byte-identical to a single-node
# run. The companion fleet tests (steal rescue, peer ejection,
# cross-node cache-fill race) ride along, as do the cell resolver's
# single-node contracts (concurrent cold resolutions compute once;
# concurrent memory- and disk-tier replays count one hit each; a
# panicking compute releases its flight). All under the race detector.
cluster-smoke:
	$(GO) test -race -count=1 -run 'TestClusterChaosSmoke|TestFleetSweepByteIdenticalNoDuplicates|TestFleetCacheFillRaceConverges|TestFleetStealRescuesStraggler|TestFleetEjectionComputesLocally|TestClusterHeaderContractsAgree|TestResolveCellDedupesOnOneNode|TestResolveCellPanicReleasesKey|TestMemoTierConcurrentReplays' -timeout 600s ./internal/service

# MRC smoke: the miss-ratio-curve profiling gate. Boots mctd, uploads a
# generated v2 trace to /v1/mrc and runs a spec request, and requires a
# monotone non-increasing curve, an MCT split that accounts for every
# miss (conflict+capacity+compulsory == misses <= accesses), and
# byte-identical cold/warm responses on both paths. TestMRCMissRatioIsExact
# requires the curve to equal the exact Mattson miss ratio on every suite
# benchmark. The SHARDS study's differential tests (sampled vs exact stack
# distances, rate adaptation, the zero-alloc observe pin) and the
# tenant-quota/header-validation suite ride along. So do the two
# cross-checks of the one-pass oracle stack the curve and the MRC split
# run on: the ladder against independent per-size fully-associative
# caches (every verdict and FA-miss count, 1–16 rungs, three
# geometries, mixed widths and depths), and the stack against the
# profiler's exact mode at power-of-two capacities. The ladder's MCT
# read-outs ride along too: the core differentials that every tag width
# and depth is a read-out of one full-tag eviction history (every miss of
# every suite benchmark at -quick), and the accuracy experiments' every
# (benchmark, rung) cell against its own cache, MCT and oracle. All under
# the race detector.
mrc-smoke:
	$(GO) test -race -count=1 -run 'TestMRCSmoke|TestProfilerMatchesExactReference|TestSampledErrorBounds|TestCurveMonotone|TestRateAdaptation|TestObserveBatchAllocs|TestMRC|TestTenant|TestLadder|TestLRUStack|TestDeepMCTIsPrefixOfDeepest|TestMCTWidthIsMatchReadOut' -timeout 300s ./cmd/mctd ./internal/mrc ./internal/service ./internal/classify ./internal/cache ./internal/experiments ./internal/core

# Known-vulnerability scan, best effort: runs when govulncheck is on PATH
# and never fails the build on environments without it (the container this
# repo grows in has no network to install tools).
vulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vulncheck: findings above (non-fatal)"; \
	else \
		echo "vulncheck: govulncheck not installed; skipping"; \
	fi

# Short fuzz passes over the binary trace decoder, the fault-spec parsers,
# the Prometheus exposition parser, the classify and MRC spec
# normalizers, the peer cell decoder, journal segment replay and the memo
# cache's segment scanner; CI runs the seed corpora via `make test`, this
# target digs deeper locally.
fuzz:
	$(GO) test -fuzz FuzzReadTrace -fuzztime 30s ./internal/trace
	$(GO) test -fuzz 'FuzzRoundTrip$$' -fuzztime 30s ./internal/trace
	$(GO) test -fuzz FuzzBatchRoundTrip -fuzztime 30s ./internal/trace
	$(GO) test -fuzz 'FuzzParse$$' -fuzztime 30s ./internal/faultinject
	$(GO) test -fuzz FuzzParseNetSpec -fuzztime 30s ./internal/faultinject
	$(GO) test -fuzz FuzzParseProm -fuzztime 30s ./internal/obs
	$(GO) test -fuzz FuzzMRCSpecNormalize -fuzztime 30s ./internal/service
	$(GO) test -fuzz FuzzClassifySpecNormalize -fuzztime 30s ./internal/service
	$(GO) test -fuzz FuzzForwardedCell -fuzztime 30s ./internal/service
	$(GO) test -fuzz FuzzJournalReplay -fuzztime 30s ./internal/journal
	$(GO) test -fuzz FuzzMemoSegment -fuzztime 30s ./internal/runner

# Drop all memoized experiment results: the segment files every cache
# appends to, and the quarantine copies. results/cache is also safely
# deletable by hand while no paperbench or mctd uses it; entries are
# invalidated automatically when the code version or parameters change,
# but their segments keep the space until deleted.
clean-cache:
	rm -rf results/cache
